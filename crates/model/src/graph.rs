//! The compute graph: a DAG of layer operations built in topological order.

use serde::{Deserialize, Serialize};

use gillis_tensor::Shape;

use crate::error::ModelError;
use crate::op::LayerOp;
use crate::Result;

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A node: an operation plus the ids of its inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Node id (equals its index in the graph).
    pub id: NodeId,
    /// Human-readable name, e.g. `conv1_1`.
    pub name: String,
    /// The operation.
    pub op: LayerOp,
    /// Input node ids (construction order guarantees these precede `id`).
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub output_shape: Shape,
}

/// A DNN compute graph.
///
/// Nodes are added in topological order (an input may only reference earlier
/// nodes), so node index order *is* a valid evaluation order. The graph is
/// single-output: the last node added is the model output.
///
/// # Examples
///
/// ```
/// use gillis_model::{Graph, LayerOp};
/// use gillis_tensor::Shape;
///
/// # fn main() -> Result<(), gillis_model::ModelError> {
/// let mut g = Graph::new();
/// let input = g.add("input", LayerOp::Input { shape: Shape::new(vec![3, 32, 32]) }, &[])?;
/// let conv = g.add(
///     "conv1",
///     LayerOp::Conv2d { out_channels: 8, kernel: 3, stride: 1, padding: 1 },
///     &[input],
/// )?;
/// assert_eq!(g.node(conv)?.output_shape.dims(), &[8, 32, 32]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node, inferring its output shape, and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownNode`] if an input id is out of range and
    /// [`ModelError::BadWiring`] if shape inference fails.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        op: LayerOp,
        inputs: &[NodeId],
    ) -> Result<NodeId> {
        let id = NodeId(self.nodes.len());
        let mut in_shapes = Vec::with_capacity(inputs.len());
        for &i in inputs {
            if i.0 >= self.nodes.len() {
                return Err(ModelError::UnknownNode(i.0));
            }
            in_shapes.push(&self.nodes[i.0].output_shape);
        }
        let output_shape = op.infer_shape(&in_shapes)?;
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
            output_shape,
        });
        Ok(id)
    }

    /// The nodes in topological (construction) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownNode`] for an out-of-range id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(ModelError::UnknownNode(id.0))
    }

    /// The output node (last added).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadWiring`] for an empty graph.
    pub fn output(&self) -> Result<&Node> {
        self.nodes
            .last()
            .ok_or_else(|| ModelError::BadWiring("empty graph".into()))
    }

    /// Ids of nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// `count` — an op's FLOPs or parameters — summed over every node: the
    /// graph-side figure the merge's conservation tests hold the merged
    /// layers to.
    #[cfg(test)]
    pub(crate) fn sum_over_nodes(&self, count: fn(&LayerOp, &[&Shape], &Shape) -> u64) -> u64 {
        let node = |n: &Node| count(&n.op, &self.input_shapes(n), &n.output_shape);
        self.nodes.iter().map(node).sum()
    }

    /// Input shapes of a node (borrowed from the producing nodes).
    pub(crate) fn input_shapes(&self, node: &Node) -> Vec<&Shape> {
        node.inputs
            .iter()
            .map(|&i| &self.nodes[i.0].output_shape)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> (Graph, NodeId, NodeId, NodeId) {
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
        let conv = g
            .add(
                "conv",
                LayerOp::Conv2d {
                    out_channels: 4,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &[input],
            )
            .unwrap();
        let relu = g.add("relu", LayerOp::Relu, &[conv]).unwrap();
        (g, input, conv, relu)
    }

    #[test]
    fn construction_infers_shapes() {
        let (g, _, conv, relu) = tiny_graph();
        assert_eq!(g.node(conv).unwrap().output_shape.dims(), &[4, 8, 8]);
        assert_eq!(g.node(relu).unwrap().output_shape.dims(), &[4, 8, 8]);
        assert_eq!(g.output().unwrap().id, relu);
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut g = Graph::new();
        let err = g.add("bad", LayerOp::Relu, &[NodeId(7)]);
        assert!(matches!(err, Err(ModelError::UnknownNode(7))));
    }

    #[test]
    fn consumers_are_tracked() {
        let (g, input, conv, _) = tiny_graph();
        assert_eq!(g.consumers(input), vec![conv]);
        assert_eq!(g.consumers(conv).len(), 1);
    }

    #[test]
    fn totals_accumulate_over_nodes() {
        let (g, ..) = tiny_graph();
        // conv params: 4 * 3 * 3 * 3 + 4 = 112
        assert_eq!(g.sum_over_nodes(LayerOp::param_count), 112);
        // conv flops + relu flops
        let conv_flops = 2 * (4 * 8 * 8) * 3 * 3 * 3;
        assert_eq!(g.sum_over_nodes(LayerOp::flops), conv_flops + 4 * 8 * 8);
    }

    #[test]
    fn empty_graph_has_no_output() {
        let g = Graph::new();
        assert!(g.output().is_err());
        assert!(g.node(NodeId(0)).is_err());
    }
}
