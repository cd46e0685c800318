//! Reference executor: full, row-range, and channel-range forward passes.
//!
//! This module stands in for the paper's MXNet backend. Its row-range and
//! channel-range entry points compute exactly what a fork-join *worker*
//! computes for a spatial or channel partition of a layer group, so the
//! equivalence `concat(partitions) == full forward` can be asserted in tests
//! — the property that makes Gillis's partitioning accuracy-lossless.
//!
//! Every entry point but the channel one is *planned*, not demand-driven: the
//! nodes of the segment are evaluated once each, in topological order, and a
//! value is dropped after its last consumer has read it. For a row or column
//! range the spans come from a [`SpanPlan`], so a value with several
//! consumers (the skip input of a residual block) is computed once over the
//! hull of what they need — a partitioned group of residual blocks costs what
//! its share of the rows costs, not a multiple that doubles with every block.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

use gillis_tensor::ops::{
    avg_pool2d, batch_norm, conv2d, dense, depthwise_conv2d, global_avg_pool, lstm_sequence,
    max_pool2d, relu, softmax, BatchNormParams, Conv2dParams, Padding, Pool2dParams,
};
use gillis_tensor::{Shape, Tensor};

use crate::error::ModelError;
use crate::graph::{Graph, NodeId};
use crate::linear::{LinearModel, MergedLayer};
use crate::op::LayerOp;
use crate::span::{span_padding, SpanPlan};
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
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unsupported`] for an empty segment and
    /// propagates kernel and weight errors.
    pub fn run_segment(&self, layers: &[MergedLayer], input: &Tensor) -> Result<Tensor> {
        let (chain, seed) = self.segment_chain(layers)?;
        self.run_nodes(&chain, seed, input.clone(), |k, inputs| {
            self.eval_node(chain[k], inputs, None)
        })
    }

    /// Computes output rows `rows` of a spatial segment, given the segment's
    /// *full* input — i.e. what one fork-join worker produces for a
    /// height-partition. The worker internally slices the halo it needs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unsupported`] if the segment contains an
    /// operation without local spatial response (dense, global pooling,
    /// LSTM), exactly the layers Gillis's grouping rule excludes.
    pub fn run_segment_rows(
        &self,
        layers: &[MergedLayer],
        input: &Tensor,
        rows: Range<usize>,
    ) -> Result<Tensor> {
        self.run_span(layers, input, 1, rows)
    }

    /// Width-dimension counterpart of [`Executor::run_segment_rows`]:
    /// computes output *columns* `cols` of a spatial segment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executor::run_segment_rows`].
    pub fn run_segment_cols(
        &self,
        layers: &[MergedLayer],
        input: &Tensor,
        cols: Range<usize>,
    ) -> Result<Tensor> {
        self.run_span(layers, input, 2, cols)
    }

    /// Computes output channels `channels` of a segment, given the segment's
    /// full input — the worker-side computation for a channel partition
    /// (Fig 2b): the head layer's filter bank is split, subsequent layers
    /// must be channel-local.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unsupported`] if the segment head is not
    /// weight-splittable or a downstream layer is not channel-local.
    pub fn run_segment_channels(
        &self,
        layers: &[MergedLayer],
        input: &Tensor,
        channels: Range<usize>,
    ) -> Result<Tensor> {
        let (chain, seed) = self.segment_chain(layers)?;
        self.chs_of(chain[chain.len() - 1], channels, seed, input)
    }

    /// The segment's nodes in evaluation order, and the node whose output
    /// feeds the segment.
    fn segment_chain(&self, layers: &[MergedLayer]) -> Result<(Vec<NodeId>, NodeId)> {
        let chain: Vec<NodeId> = layers
            .iter()
            .flat_map(|l| l.nodes.iter().copied())
            .collect();
        let first = chain
            .first()
            .ok_or_else(|| ModelError::Unsupported("empty segment".into()))?;
        let node = self.graph.node(*first)?;
        let seed = node.inputs.first().copied().ok_or_else(|| {
            ModelError::BadWiring(format!("segment head {} has no input", node.name))
        })?;
        Ok((chain, seed))
    }

    /// Planned evaluation of output span `span` of a spatial segment along
    /// `dim` (1 = height/rows, 2 = width/columns): every node of the
    /// [`SpanPlan`] is evaluated once over its hull, each consumer slicing
    /// the sub-span it reads.
    fn run_span(
        &self,
        layers: &[MergedLayer],
        input: &Tensor,
        dim: usize,
        span: Range<usize>,
    ) -> Result<Tensor> {
        let (chain, seed) = self.segment_chain(layers)?;
        let plan = SpanPlan::new(self.graph, &chain, seed, input.shape(), dim, span)?;
        let ids: Vec<NodeId> = plan.nodes.iter().map(|n| n.id).collect();
        let seed_value = input.slice(dim, plan.seed_span.clone())?;
        self.run_nodes(&ids, seed, seed_value, |k, inputs| {
            let sn = &plan.nodes[k];
            let read: Vec<Cow<'_, Tensor>> = inputs
                .iter()
                .zip(&sn.reads)
                .map(|(&t, r)| {
                    Ok(if r.len() == t.shape().dim(dim)? {
                        Cow::Borrowed(t)
                    } else {
                        Cow::Owned(t.slice(dim, r.clone())?)
                    })
                })
                .collect::<Result<_>>()?;
            let read: Vec<&Tensor> = read.iter().map(|t| t.as_ref()).collect();
            self.eval_node(sn.id, &read, Some((dim, sn.lo, sn.hi)))
        })
    }

    /// Evaluates `ids` in order — `eval(k, inputs)` produces the value of
    /// `ids[k]` from the values of its graph inputs — and returns the last
    /// value. Consumers are counted up front, so a value (the seed included)
    /// is freed as soon as its last consumer has run.
    fn run_nodes(
        &self,
        ids: &[NodeId],
        seed: NodeId,
        seed_value: Tensor,
        eval: impl Fn(usize, &[&Tensor]) -> Result<Tensor>,
    ) -> Result<Tensor> {
        let mut uses: HashMap<NodeId, usize> = HashMap::new();
        for &id in ids {
            for &i in &self.graph.node(id)?.inputs {
                *uses.entry(i).or_default() += 1;
            }
        }
        let mut values: HashMap<NodeId, Tensor> = HashMap::new();
        values.insert(seed, seed_value);
        let mut last = seed;
        for (k, &id) in ids.iter().enumerate() {
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
            let out = eval(k, &inputs)?;
            for i in &node.inputs {
                let left = uses.get_mut(i).expect("every input was counted");
                *left -= 1;
                if *left == 0 {
                    values.remove(i);
                }
            }
            values.insert(id, out);
            last = id;
        }
        values
            .remove(&last)
            .ok_or_else(|| ModelError::Unsupported("empty segment".into()))
    }

    /// Evaluates one node on the values of its graph inputs. `halo` is
    /// `Some((dim, lo, hi))` when the inputs are spans of a [`SpanPlan`]: a
    /// windowed op then pads `lo`/`hi` zero rows along `dim` instead of its
    /// own symmetric padding (the plan admits only ops for which that is the
    /// whole difference).
    fn eval_node(
        &self,
        id: NodeId,
        inputs: &[&Tensor],
        halo: Option<(usize, usize, usize)>,
    ) -> Result<Tensor> {
        let node = self.graph.node(id)?;
        let pad = |full: usize| match halo {
            Some((dim, lo, hi)) => span_padding(dim, lo, hi, full),
            None => Padding::symmetric(full),
        };
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
                let params = Conv2dParams {
                    kernel: (*kernel, *kernel),
                    stride: (*stride, *stride),
                    padding: pad(*padding),
                };
                Ok(conv2d(inputs[0], w, Some(b), &params)?)
            }
            LayerOp::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                let (w, b) = self.depthwise_weights(id)?;
                let params = Conv2dParams {
                    kernel: (*kernel, *kernel),
                    stride: (*stride, *stride),
                    padding: pad(*padding),
                };
                Ok(depthwise_conv2d(inputs[0], w, Some(b), &params)?)
            }
            LayerOp::BatchNorm => {
                let params = self.bn_weights(id)?;
                Ok(batch_norm(inputs[0], params)?)
            }
            LayerOp::Relu => Ok(relu(inputs[0])),
            LayerOp::MaxPool2d {
                kernel,
                stride,
                padding,
            }
            | LayerOp::AvgPool2d {
                kernel,
                stride,
                padding,
            } => {
                let params = Pool2dParams {
                    kernel: (*kernel, *kernel),
                    stride: (*stride, *stride),
                    padding: pad(*padding),
                };
                match node.op {
                    LayerOp::MaxPool2d { .. } => Ok(max_pool2d(inputs[0], &params)?),
                    _ => Ok(avg_pool2d(inputs[0], &params)?),
                }
            }
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
            LayerOp::Softmax => Ok(softmax(inputs[0])?),
        }
    }

    /// Demand-driven evaluation of output channels `channels` of node `id`.
    fn chs_of(
        &self,
        id: NodeId,
        channels: Range<usize>,
        seed: NodeId,
        seed_value: &Tensor,
    ) -> Result<Tensor> {
        if id == seed {
            // Channel-local group: the head slices its input channels.
            return Ok(seed_value.slice(0, channels)?);
        }
        let node = self.graph.node(id)?;
        match &node.op {
            LayerOp::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                // Weight-split head: full input, filter subset.
                let input = self.full_of(node.inputs[0], seed, seed_value)?;
                let (w, b) = self.conv_weights(id)?;
                let w = w.slice(0, channels.clone())?;
                let b = b.slice(0, channels)?;
                Ok(conv2d(
                    &input,
                    &w,
                    Some(&b),
                    &Conv2dParams::square(*kernel, *stride, *padding),
                )?)
            }
            LayerOp::Dense { .. } => {
                let input = self.full_of(node.inputs[0], seed, seed_value)?;
                let (w, b) = self.dense_weights(id)?;
                let w = w.slice(0, channels.clone())?;
                let b = b.slice(0, channels)?;
                Ok(dense(&input, &w, Some(&b))?)
            }
            LayerOp::BatchNorm => {
                let input = self.chs_of(node.inputs[0], channels.clone(), seed, seed_value)?;
                let p = self.bn_weights(id)?;
                let sliced = BatchNormParams {
                    gamma: p.gamma.slice(0, channels.clone())?,
                    beta: p.beta.slice(0, channels.clone())?,
                    mean: p.mean.slice(0, channels.clone())?,
                    var: p.var.slice(0, channels)?,
                    eps: p.eps,
                };
                Ok(batch_norm(&input, &sliced)?)
            }
            LayerOp::Relu => {
                let input = self.chs_of(node.inputs[0], channels, seed, seed_value)?;
                Ok(relu(&input))
            }
            LayerOp::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                // Channel-local: slice both the input channels and the
                // per-channel filters.
                let input = self.chs_of(node.inputs[0], channels.clone(), seed, seed_value)?;
                let (w, b) = self.depthwise_weights(id)?;
                let w = w.slice(0, channels.clone())?;
                let b = b.slice(0, channels)?;
                Ok(depthwise_conv2d(
                    &input,
                    &w,
                    Some(&b),
                    &Conv2dParams::square(*kernel, *stride, *padding),
                )?)
            }
            LayerOp::MaxPool2d {
                kernel,
                stride,
                padding,
            } => {
                let input = self.chs_of(node.inputs[0], channels, seed, seed_value)?;
                Ok(max_pool2d(
                    &input,
                    &Pool2dParams::square(*kernel, *stride, *padding),
                )?)
            }
            LayerOp::AvgPool2d {
                kernel,
                stride,
                padding,
            } => {
                let input = self.chs_of(node.inputs[0], channels, seed, seed_value)?;
                Ok(avg_pool2d(
                    &input,
                    &Pool2dParams::square(*kernel, *stride, *padding),
                )?)
            }
            LayerOp::GlobalAvgPool => {
                let input = self.chs_of(node.inputs[0], channels, seed, seed_value)?;
                Ok(global_avg_pool(&input)?)
            }
            LayerOp::Flatten => {
                let input = self.chs_of(node.inputs[0], channels, seed, seed_value)?;
                let len = input.shape().len();
                Ok(input.reshape(Shape::new(vec![len]))?)
            }
            other => Err(ModelError::Unsupported(format!(
                "channel-range execution of {other:?}"
            ))),
        }
    }

    /// Full value of a node — only permitted for the seed and `Flatten`s of
    /// the seed, i.e. the inputs a weight-split head consumes whole.
    fn full_of(&self, id: NodeId, seed: NodeId, seed_value: &Tensor) -> Result<Tensor> {
        if id == seed {
            return Ok(seed_value.clone());
        }
        let node = self.graph.node(id)?;
        match node.op {
            LayerOp::Flatten => {
                let input = self.full_of(node.inputs[0], seed, seed_value)?;
                let len = input.shape().len();
                Ok(input.reshape(Shape::new(vec![len]))?)
            }
            _ => Err(ModelError::Unsupported(
                "channel partition requires the weight-split layer at the group head".into(),
            )),
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
    use super::*;
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
        let spatial: Vec<_> = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .cloned()
            .collect();
        assert!(spatial.len() >= 2);
        let seg = &spatial[..2];
        let full = exec.run_segment(seg, &input).unwrap();
        let out_h = seg.last().unwrap().out_shape.dims()[1];
        for n in [2usize, 4] {
            let mut parts = Vec::new();
            for p in 0..n {
                let lo = p * out_h / n;
                let hi = (p + 1) * out_h / n;
                parts.push(exec.run_segment_rows(seg, &input, lo..hi).unwrap());
            }
            let stitched = Tensor::concat(&parts, 1).unwrap();
            assert!(
                full.max_abs_diff(&stitched).unwrap() < 1e-4,
                "{n}-way row partition diverged"
            );
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
            let spatial: Vec<_> = model
                .layers()
                .iter()
                .take_while(|l| l.class.supports_spatial())
                .cloned()
                .collect();
            assert!(spatial.len() >= 3, "{}", model.name());
            let mut seg_input = query(model.input_shape(), 8);
            for start in 0..spatial.len() {
                for end in start + 1..=spatial.len() {
                    let seg = &spatial[start..end];
                    let full = exec.run_segment(seg, &seg_input).unwrap();
                    for dim in [1usize, 2] {
                        let extent = full.shape().dims()[dim];
                        for n in [2usize, 3, 4, 8] {
                            let parts: Vec<Tensor> = (0..n)
                                .map(|p| p * extent / n..(p + 1) * extent / n)
                                .filter(|r| !r.is_empty())
                                .map(|r| match dim {
                                    1 => exec.run_segment_rows(seg, &seg_input, r).unwrap(),
                                    _ => exec.run_segment_cols(seg, &seg_input, r).unwrap(),
                                })
                                .collect();
                            let stitched = Tensor::concat(&parts, dim).unwrap();
                            assert_eq!(full.shape(), stitched.shape());
                            for (a, b) in full.data().iter().zip(stitched.data()) {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{} layers {start}..{end}, dim {dim}, {n} parts",
                                    model.name()
                                );
                            }
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
        let spatial: Vec<_> = model
            .layers()
            .iter()
            .take_while(|l| l.class.supports_spatial())
            .cloned()
            .collect();
        let seg = &spatial[..2];
        let full = exec.run_segment(seg, &input).unwrap();
        let out_w = seg.last().unwrap().out_shape.dims()[2];
        for n in [2usize, 4] {
            let mut parts = Vec::new();
            for p in 0..n {
                let lo = p * out_w / n;
                let hi = (p + 1) * out_w / n;
                parts.push(exec.run_segment_cols(seg, &input, lo..hi).unwrap());
            }
            let stitched = Tensor::concat(&parts, 2).unwrap();
            assert!(
                full.max_abs_diff(&stitched).unwrap() < 1e-4,
                "{n}-way column partition diverged"
            );
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
        let out_c = seg[0].out_shape.dims()[0];
        let mut parts = Vec::new();
        for p in 0..2 {
            let lo = p * out_c / 2;
            let hi = (p + 1) * out_c / 2;
            parts.push(exec.run_segment_channels(seg, &input, lo..hi).unwrap());
        }
        let stitched = Tensor::concat(&parts, 0).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-4);
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
        let out_n = seg[0].out_shape.dims()[0];
        let parts: Vec<Tensor> = (0..2)
            .map(|p| {
                exec.run_segment_channels(seg, &input, p * out_n / 2..(p + 1) * out_n / 2)
                    .unwrap()
            })
            .collect();
        let stitched = Tensor::concat(&parts, 0).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-4);
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
        assert!(matches!(
            exec.run_segment_rows(dense_seg, &fake_input, 0..1),
            Err(ModelError::Unsupported(_))
        ));
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
        let adjacent = conv_indices.windows(2).find(|w| w[1] == w[0] + 1);
        let (a, b) = match adjacent {
            Some(w) => (w[0], w[1]),
            None => panic!("expected adjacent convs in tiny-vgg"),
        };
        let seg = &layers[a..=b];
        let input = Tensor::zeros(seg[0].in_shape.clone());
        assert!(matches!(
            exec.run_segment_channels(seg, &input, 0..4),
            Err(ModelError::Unsupported(_))
        ));
    }
}
