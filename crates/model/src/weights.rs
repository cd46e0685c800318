//! Random weight materialization for executable (small) models.
//!
//! The zoo describes topology only; tests that check semantic equivalence of
//! partitioned execution materialize weights here. Initialization uses a
//! fan-in scale so activations neither vanish nor explode through deep
//! chains, keeping floating-point comparisons meaningful.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
    /// batch norms, int8 panels — is keyed on it; unlike an address it
    /// travels with a move and is never reused.
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

fn sample(rng: &mut StdRng, scale: f32) -> f32 {
    (rng.random::<f32>() * 2.0 - 1.0) * scale
}

fn random_tensor(rng: &mut StdRng, shape: Shape, fan_in: usize) -> Tensor {
    let scale = (1.0 / fan_in.max(1) as f32).sqrt();
    Tensor::from_fn(shape, |_| sample(rng, scale))
}

/// Generates deterministic random weights for every weighted node in `graph`.
///
/// # Errors
///
/// Returns [`ModelError::BadWiring`] if a weighted node has inconsistent
/// input shapes (should not happen for graphs built through [`Graph::add`]).
pub fn init_weights(graph: &Graph, seed: u64) -> Result<ModelWeights> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights = ModelWeights::new();
    for node in graph.nodes() {
        let in_shapes = graph.input_shapes(node);
        match &node.op {
            LayerOp::Conv2d {
                out_channels,
                kernel,
                ..
            } => {
                let in_c = in_shapes[0].dims()[0];
                let fan_in = in_c * kernel * kernel;
                let weight = random_tensor(
                    &mut rng,
                    Shape::new(vec![*out_channels, in_c, *kernel, *kernel]),
                    fan_in,
                );
                let bias = random_tensor(&mut rng, Shape::new(vec![*out_channels]), fan_in);
                weights.insert(node.id, NodeWeights::Conv { weight, bias });
            }
            LayerOp::DepthwiseConv2d { kernel, .. } => {
                let c = in_shapes[0].dims()[0];
                let fan_in = kernel * kernel;
                let weight = random_tensor(&mut rng, Shape::new(vec![c, *kernel, *kernel]), fan_in);
                let bias = random_tensor(&mut rng, Shape::new(vec![c]), fan_in);
                weights.insert(node.id, NodeWeights::Depthwise { weight, bias });
            }
            LayerOp::BatchNorm => {
                let c = in_shapes[0].dims()[0];
                let params = BatchNormParams {
                    gamma: Tensor::from_fn(Shape::new(vec![c]), |_| 0.5 + rng.random::<f32>()),
                    beta: random_tensor(&mut rng, Shape::new(vec![c]), 1),
                    mean: random_tensor(&mut rng, Shape::new(vec![c]), 1),
                    var: Tensor::from_fn(Shape::new(vec![c]), |_| 0.5 + rng.random::<f32>()),
                    eps: 1e-5,
                };
                weights.insert(node.id, NodeWeights::Bn(params));
            }
            LayerOp::Dense { out_features } => {
                let in_n = in_shapes[0].len();
                let weight = random_tensor(&mut rng, Shape::new(vec![*out_features, in_n]), in_n);
                let bias = random_tensor(&mut rng, Shape::new(vec![*out_features]), in_n);
                weights.insert(node.id, NodeWeights::Dense { weight, bias });
            }
            LayerOp::Lstm { hidden } => {
                let in_f = in_shapes[0].dims()[1];
                let params = LstmParams {
                    w_ih: random_tensor(&mut rng, Shape::new(vec![4 * hidden, in_f]), in_f),
                    w_hh: random_tensor(&mut rng, Shape::new(vec![4 * hidden, *hidden]), *hidden),
                    bias: random_tensor(&mut rng, Shape::new(vec![4 * hidden]), *hidden),
                };
                weights.insert(node.id, NodeWeights::Lstm(params));
            }
            _ => {}
        }
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

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
