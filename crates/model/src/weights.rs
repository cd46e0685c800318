//! Random weight materialization: the cold path of every model that runs.
//!
//! The zoo describes topology only; whatever executes a model — the
//! semantic-equivalence tests on the tiny ones, the repo benchmark on VGG-11
//! (531 MB) and RNN-3 (470 MB) — materializes its weights here first, so
//! this is what a cold start costs before the first query. Initialization
//! uses a fan-in scale so activations neither vanish nor explode through
//! deep chains, keeping floating-point comparisons meaningful.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gillis_tensor::ops::{BatchNormParams, LstmParams};
use gillis_tensor::{Shape, Tensor};

use crate::error::ModelError;
use crate::graph::{Graph, NodeId};
use crate::op::LayerOp;
use crate::Result;

/// Weights of a single node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeWeights {
    /// Convolution: weight `[out_c, in_c, k, k]` and bias `[out_c]`.
    Conv {
        /// Filter bank.
        weight: Tensor,
        /// Bias.
        bias: Tensor,
    },
    /// Depthwise convolution: weight `[c, k, k]` and bias `[c]`.
    Depthwise {
        /// Per-channel filters.
        weight: Tensor,
        /// Bias.
        bias: Tensor,
    },
    /// Batch normalization parameters.
    Bn(BatchNormParams),
    /// Dense: weight `[out, in]` and bias `[out]`.
    Dense {
        /// Weight matrix.
        weight: Tensor,
        /// Bias.
        bias: Tensor,
    },
    /// LSTM parameters.
    Lstm(LstmParams),
}

impl NodeWeights {
    /// The node's tensors in declaration order: `weight, bias`;
    /// `gamma, beta, mean, var`; `w_ih, w_hh, bias`.
    pub fn tensors(&self) -> Vec<&Tensor> {
        match self {
            NodeWeights::Conv { weight, bias }
            | NodeWeights::Depthwise { weight, bias }
            | NodeWeights::Dense { weight, bias } => vec![weight, bias],
            NodeWeights::Bn(p) => vec![&p.gamma, &p.beta, &p.mean, &p.var],
            NodeWeights::Lstm(p) => vec![&p.w_ih, &p.w_hh, &p.bias],
        }
    }
}

/// Source of [`ModelWeights::stamp`] values. `Relaxed` suffices: the counter
/// only has to hand out distinct numbers, it publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// All weights of a model, keyed by graph node.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    map: HashMap<NodeId, NodeWeights>,
    stamp: u64,
}

impl Default for ModelWeights {
    fn default() -> Self {
        ModelWeights::new()
    }
}

impl ModelWeights {
    /// Creates an empty weight store.
    pub fn new() -> Self {
        ModelWeights {
            map: HashMap::new(),
            stamp: next_stamp(),
        }
    }

    /// Inserts weights for a node, replacing any previous entry.
    pub fn insert(&mut self, id: NodeId, weights: NodeWeights) {
        self.map.insert(id, weights);
        self.stamp = next_stamp();
    }

    /// Version stamp of the content: drawn from a process-wide counter at
    /// construction and at every [`ModelWeights::insert`], so two weight sets
    /// with equal stamps hold equal content (one is a move or a clone of the
    /// other, unmodified since). State derived from the weights — folded
    /// batch norms — is keyed on it; unlike an address it travels with a
    /// move and is never reused.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Weights for a node.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadWeights`] if the node has no weights.
    pub fn get(&self, id: NodeId) -> Result<&NodeWeights> {
        self.map
            .get(&id)
            .ok_or_else(|| ModelError::BadWeights(format!("no weights for node {}", id.0)))
    }

    /// Number of nodes with weights.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// splitmix64 finalizer: the workspace-standard seed scrambler. A copy of
/// `gillis_faas::chaos::splitmix64`: this crate does not depend on
/// `gillis-faas`, and adding that edge would change the lock file of the
/// benchmark package, which builds this crate.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which of a node's tensors a stream feeds; part of the stream's key.
#[derive(Clone, Copy)]
enum Role {
    Weight,
    Bias,
    Gamma,
    Beta,
    Mean,
    Var,
    Wih,
    Whh,
}

/// Key of the [`Tensor::uniform`] stream behind one tensor:
/// `splitmix64(seed, node, role)`, folded in that order.
fn stream_key(seed: u64, node: NodeId, role: Role) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ node.0 as u64) ^ role as u64)
}

/// Generates deterministic random weights for every weighted node in `graph`.
///
/// Every element is a pure function of `(seed, node id, role, flat index)`,
/// so the result is the same at any pool width and in any build, and
/// appending a layer leaves every earlier node's weights as they were;
/// *inserting* one renumbers the nodes after it and so moves theirs.
///
/// # Errors
///
/// Returns [`ModelError::BadWiring`] if a weighted node has no input, or an
/// input without the dimension its parameter shapes are read from (channels
/// for conv, depthwise and batch norm; features for LSTM) — a rank-0 input
/// feeding a batch norm passes [`Graph::add`].
pub fn init_weights(graph: &Graph, seed: u64) -> Result<ModelWeights> {
    let mut weights = ModelWeights::new();
    for node in graph.nodes() {
        let in_shapes = graph.input_shapes(node);
        let uniform = |role: Role, dims: Vec<usize>, lo: f32, hi: f32| {
            Tensor::uniform(Shape::new(dims), stream_key(seed, node.id, role), lo, hi)
        };
        // Uniform over `±1/√fan_in`, and over `[0.5, 1.5]` (a batch-norm
        // scale or variance).
        let scaled = |role: Role, dims: Vec<usize>, fan_in: usize| {
            let scale = (1.0 / fan_in.max(1) as f32).sqrt();
            uniform(role, dims, -scale, scale)
        };
        let positive = |role: Role, len: usize| uniform(role, vec![len], 0.5, 1.5);
        let unsized_input = || {
            ModelError::BadWiring(format!(
                "{}: no input shape to size weights from",
                node.name
            ))
        };
        let input = in_shapes.first();
        let in_dim = |axis: usize| {
            let dim = input.and_then(|s| s.dims().get(axis));
            dim.copied().ok_or_else(unsized_input)
        };
        let node_weights = match &node.op {
            LayerOp::Conv2d {
                out_channels: out_c,
                kernel: k,
                ..
            } => {
                let in_c = in_dim(0)?;
                let fan_in = in_c * k * k;
                NodeWeights::Conv {
                    weight: scaled(Role::Weight, vec![*out_c, in_c, *k, *k], fan_in),
                    bias: scaled(Role::Bias, vec![*out_c], fan_in),
                }
            }
            LayerOp::DepthwiseConv2d { kernel: k, .. } => {
                let c = in_dim(0)?;
                NodeWeights::Depthwise {
                    weight: scaled(Role::Weight, vec![c, *k, *k], k * k),
                    bias: scaled(Role::Bias, vec![c], k * k),
                }
            }
            LayerOp::BatchNorm => {
                let c = in_dim(0)?;
                NodeWeights::Bn(BatchNormParams {
                    gamma: positive(Role::Gamma, c),
                    beta: scaled(Role::Beta, vec![c], 1),
                    mean: scaled(Role::Mean, vec![c], 1),
                    var: positive(Role::Var, c),
                    eps: 1e-5,
                })
            }
            LayerOp::Dense { out_features: out } => {
                let in_n = input.ok_or_else(unsized_input)?.len();
                NodeWeights::Dense {
                    weight: scaled(Role::Weight, vec![*out, in_n], in_n),
                    bias: scaled(Role::Bias, vec![*out], in_n),
                }
            }
            LayerOp::Lstm { hidden: h } => {
                let in_f = in_dim(1)?;
                NodeWeights::Lstm(LstmParams {
                    w_ih: scaled(Role::Wih, vec![4 * h, in_f], in_f),
                    w_hh: scaled(Role::Whh, vec![4 * h, *h], *h),
                    bias: scaled(Role::Bias, vec![4 * h], *h),
                })
            }
            _ => continue,
        };
        weights.insert(node.id, node_weights);
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, LinearModel};

    #[test]
    fn init_covers_every_weighted_node() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 7).unwrap();
        let weighted = model
            .graph()
            .nodes()
            .iter()
            .filter(|n| n.op.has_weights())
            .count();
        assert_eq!(weights.len(), weighted);
        assert!(!weights.is_empty());
    }

    #[test]
    fn init_is_deterministic_in_seed() {
        let model = zoo::tiny_resnet();
        let a = init_weights(model.graph(), 42).unwrap();
        let b = init_weights(model.graph(), 42).unwrap();
        let c = init_weights(model.graph(), 43).unwrap();
        for node in model.graph().nodes() {
            if node.op.has_weights() {
                assert_eq!(a.get(node.id).unwrap(), b.get(node.id).unwrap());
            }
        }
        // Different seed produces different weights somewhere.
        let differs = model
            .graph()
            .nodes()
            .iter()
            .any(|n| n.op.has_weights() && a.get(n.id).unwrap() != c.get(n.id).unwrap());
        assert!(differs);
    }

    #[test]
    fn stamp_follows_content_not_address() {
        let model = zoo::tiny_vgg();
        let a = init_weights(model.graph(), 42).unwrap();
        let stamp = a.stamp();
        // A move (here into a box, onto the heap) keeps the stamp; so does a
        // clone, and reading through either.
        let moved = Box::new(a);
        assert_eq!(moved.stamp(), stamp);
        let mut copy = (*moved).clone();
        let id = model
            .graph()
            .nodes()
            .iter()
            .find(|n| n.op.has_weights())
            .unwrap()
            .id;
        assert_eq!(copy.get(id).unwrap(), moved.get(id).unwrap());
        assert_eq!(copy.stamp(), stamp);
        // An insert — even of equal content — restamps the set it touches,
        // and only that one.
        let same = copy.get(id).unwrap().clone();
        copy.insert(id, same);
        assert_ne!(copy.stamp(), stamp);
        assert_eq!(moved.stamp(), stamp);
        // Equal seeds give equal content but distinct sets: the stamp does
        // not claim more than it can know.
        let b = init_weights(model.graph(), 42).unwrap();
        assert_ne!(b.stamp(), stamp);
        assert_ne!(ModelWeights::new().stamp(), ModelWeights::new().stamp());
    }

    #[test]
    fn missing_weights_error() {
        let w = ModelWeights::new();
        assert!(matches!(w.get(NodeId(3)), Err(ModelError::BadWeights(_))));
    }

    /// Every tensor of `weights` with its node's name and the interval it
    /// was drawn over, the fan-ins restated from the graph.
    fn streams<'a>(graph: &Graph, weights: &'a ModelWeights) -> Vec<(String, &'a Tensor, Tensor)> {
        let mut out = Vec::new();
        for node in graph.nodes().iter().filter(|n| n.op.has_weights()) {
            let input = graph.input_shapes(node)[0];
            // `Some(fan_in)`: uniform over ±1/√fan_in; `None`: over [0.5, 1.5].
            let fan_ins = match &node.op {
                LayerOp::Conv2d { kernel: k, .. } => vec![Some(input.dims()[0] * k * k); 2],
                LayerOp::DepthwiseConv2d { kernel: k, .. } => vec![Some(k * k); 2],
                LayerOp::BatchNorm => vec![None, Some(1), Some(1), None],
                LayerOp::Dense { .. } => vec![Some(input.len()); 2],
                LayerOp::Lstm { hidden } => {
                    vec![Some(input.dims()[1]), Some(*hidden), Some(*hidden)]
                }
                _ => unreachable!("has_weights"),
            };
            let tensors = weights.get(node.id).unwrap().tensors();
            assert_eq!(tensors.len(), fan_ins.len(), "{}", node.name);
            for (t, fan_in) in tensors.into_iter().zip(fan_ins) {
                // Half-width of the interval; its midpoint is 0 or 1.
                let half = fan_in.map_or(0.5, |f| (1.0 / f as f32).sqrt());
                let mid = if fan_in.is_some() { 0.0 } else { 1.0 };
                assert!(
                    t.data().iter().all(|w| (w - mid).abs() <= half),
                    "{}: a value outside its interval",
                    node.name
                );
                // Normalised to [-1, 1] so two tensors on one stream would
                // agree whatever their scales.
                let unit = t.map(|w| (w - mid) / half);
                out.push((node.name.clone(), t, unit));
            }
        }
        out
    }

    fn hygiene_models() -> [LinearModel; 3] {
        // The RNN-2 architecture at a width whose first `w_ih` (1024 x 512)
        // is filled on the pool; tiny-resnet's last convs are too.
        [
            zoo::tiny_resnet(),
            zoo::tiny_inception(),
            zoo::rnn_sized(2, 512, 256),
        ]
    }

    /// What one sequential stream gave for free and site keys must earn.
    #[test]
    fn streams_are_distinct_centred_and_bounded() {
        for model in hygiene_models() {
            let a = init_weights(model.graph(), 42).unwrap();
            let b = init_weights(model.graph(), 43).unwrap();
            let (sa, sb) = (streams(model.graph(), &a), streams(model.graph(), &b));
            for (i, (name, t, unit)) in sa.iter().enumerate() {
                // Uniform on [-1, 1]: sigma of the mean is 1/sqrt(3n).
                let n = unit.data().len();
                let mean = unit.data().iter().map(|&u| f64::from(u)).sum::<f64>() / n as f64;
                let sigma = f64::sqrt(1.0 / (3.0 * n as f64));
                assert!(mean.abs() <= 4.0 * sigma, "{name}: mean {mean} of {n}");
                assert_ne!(*t, sb[i].1, "{name}: seeds 42 and 43 agree");
                for (other, _, unit2) in &sa[..i] {
                    let heads = unit.data().iter().zip(unit2.data()).take(8);
                    let shared = heads.into_iter().all(|(x, y)| (x - y).abs() < 1e-4);
                    assert!(!shared, "{name} and {other} open with the same values");
                }
            }
        }
    }

    #[test]
    fn appending_a_layer_leaves_earlier_weights_alone() {
        for model in hygiene_models() {
            let mut longer = model.graph().clone();
            let last = longer.output().unwrap().id;
            let added = longer.add("appended", LayerOp::BatchNorm, &[last]).unwrap();
            let a = init_weights(model.graph(), 9).unwrap();
            let b = init_weights(&longer, 9).unwrap();
            assert_eq!(b.len(), a.len() + 1);
            assert!(b.get(added).is_ok());
            for node in model.graph().nodes().iter().filter(|n| n.op.has_weights()) {
                assert_eq!(a.get(node.id).unwrap(), b.get(node.id).unwrap());
            }
        }
    }

    /// An element is a function of `(key, index)`, never of the tensor's
    /// length or of where the pool cut it: the narrower LSTM's `w_ih` (same
    /// fan-in, fewer rows) is a prefix of the wider one's, though the wider
    /// is filled in `GILLIS_THREADS` chunks and the narrower inline. (The
    /// widths themselves are swept in `gillis-tensor`, whose `_with_threads`
    /// entry point is crate-private, and by CI's `weights_hash` lines.)
    #[test]
    fn pooled_fill_matches_the_inline_prefix() {
        let w_ih = |hidden: usize| {
            let model = zoo::rnn_sized(2, 512, hidden);
            let weights = init_weights(model.graph(), 7).unwrap();
            let first = weights.get(model.graph().nodes()[1].id).unwrap();
            first.tensors()[0]
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>()
        };
        let (wide, narrow) = (w_ih(256), w_ih(192));
        assert!(wide.len() >= 1 << 19 && narrow.len() < 1 << 19);
        assert!(wide[..narrow.len()] == narrow[..]);
    }

    #[test]
    fn input_without_a_channel_dimension_is_bad_wiring() {
        let mut g = Graph::new();
        let shape = Shape::new(vec![]);
        let input = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
        g.add("bn", LayerOp::BatchNorm, &[input]).unwrap();
        assert!(matches!(init_weights(&g, 1), Err(ModelError::BadWiring(_))));
    }

    #[test]
    fn weights_are_bounded_by_fan_in_scale() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 1).unwrap();
        for node in model.graph().nodes() {
            if let Ok(NodeWeights::Conv { weight, .. }) = weights.get(node.id) {
                let max = weight.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                assert!(max <= 1.0, "conv weight magnitude {max} too large");
            }
        }
    }
}
