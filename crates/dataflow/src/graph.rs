//! Graph construction: nodes, edges, and builder helpers.

use std::fmt;

use fathom_tensor::kernels::conv::Conv2dSpec;
use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::kernels::pool2d::Pool2dSpec;
use fathom_tensor::{Shape, Tensor};

use crate::op::OpKind;

/// Identifies a node within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's position in graph insertion order.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors produced while building a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An operation rejected its input shapes.
    Shape {
        /// Operation type name.
        op: &'static str,
        /// Explanation of the mismatch.
        msg: String,
    },
    /// An input [`NodeId`] does not belong to this graph.
    UnknownNode(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Shape { op, msg } => write!(f, "invalid shapes for {op}: {msg}"),
            GraphError::UnknownNode(id) => write!(f, "node {id} does not belong to this graph"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One operation instance in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Operation type and attributes.
    pub kind: OpKind,
    /// Dataflow inputs, in operation-defined order.
    pub inputs: Vec<NodeId>,
    /// Statically inferred output shape.
    pub shape: Shape,
    /// Optional human-readable name (layer names, variable names).
    pub name: Option<String>,
}

/// A coarse-grained dataflow graph.
///
/// Graphs are append-only: nodes are added with [`Graph::add`] (or the
/// typed builder helpers) and never removed, so a [`NodeId`] is valid for
/// the life of the graph.
///
/// # Examples
///
/// ```
/// use fathom_dataflow::Graph;
/// use fathom_tensor::{Shape, Tensor};
///
/// let mut g = Graph::new();
/// let x = g.placeholder("x", Shape::matrix(2, 3));
/// let w = g.variable("w", Tensor::ones([3, 4]));
/// let y = g.matmul(x, w);
/// assert_eq!(g.shape(y).dims(), &[2, 4]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The inferred output shape of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.node(id).shape
    }

    /// Iterates over `(id, node)` pairs in insertion (topological-friendly)
    /// order. Because the graph is append-only, every node's inputs precede
    /// it.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Ids of all `Variable` nodes, in insertion order.
    pub fn variables(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::Variable { .. }))
            .map(|(id, _)| id)
            .collect()
    }

    /// Scales the learning rate of every optimizer `Apply` node by
    /// `factor`, returning how many nodes were rescaled. This is the
    /// guardrail's backoff lever: after a divergence the training loop
    /// can shrink the step size and replay the batch without rebuilding
    /// the graph. The hyperparameters live in the node kinds and are read
    /// fresh at dispatch, so the change takes effect on the next run.
    pub fn scale_apply_lrs(&mut self, factor: f32) -> usize {
        let mut scaled = 0;
        for node in &mut self.nodes {
            if let OpKind::Apply(opt) = &mut node.kind {
                opt.scale_lr(factor);
                scaled += 1;
            }
        }
        scaled
    }

    /// Adds a node, validating inputs and inferring the output shape.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is foreign or the shapes are
    /// invalid for the operation.
    pub fn try_add(&mut self, kind: OpKind, inputs: &[NodeId]) -> Result<NodeId, GraphError> {
        for &i in inputs {
            if i.index() >= self.nodes.len() {
                return Err(GraphError::UnknownNode(i));
            }
        }
        let shapes: Vec<&Shape> = inputs.iter().map(|&i| &self.nodes[i.index()].shape).collect();
        let shape = kind.infer_shape(&shapes)?;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, inputs: inputs.to_vec(), shape, name: None });
        Ok(id)
    }

    /// Rewrites a node in place with a new kind and input list, keeping
    /// its id, shape, and name. This is how the fusion pass collapses a
    /// group: the root becomes a [`OpKind::Fused`] node over the group's
    /// external inputs while interior nodes stay in the graph (possibly
    /// unreferenced), so every previously handed-out [`NodeId`] remains
    /// valid and fetchable.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is foreign or does not strictly
    /// precede `id` (which would break the append-order topological
    /// invariant), or if the new kind infers a different output shape.
    pub fn replace_node(
        &mut self,
        id: NodeId,
        kind: OpKind,
        inputs: &[NodeId],
    ) -> Result<(), GraphError> {
        if id.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(id));
        }
        for &i in inputs {
            if i.index() >= id.index() {
                return Err(GraphError::UnknownNode(i));
            }
        }
        let shapes: Vec<&Shape> = inputs.iter().map(|&i| &self.nodes[i.index()].shape).collect();
        let shape = kind.infer_shape(&shapes)?;
        let node = &mut self.nodes[id.index()];
        if shape != node.shape {
            return Err(GraphError::Shape {
                op: node.kind.name(),
                msg: format!("replacement infers {shape}, original was {}", node.shape),
            });
        }
        node.kind = kind;
        node.inputs = inputs.to_vec();
        Ok(())
    }

    /// Adds a node, panicking on invalid input (graph construction errors
    /// are programming errors, as in TensorFlow's Python frontend).
    ///
    /// # Panics
    ///
    /// Panics if the inputs are invalid for the operation.
    pub fn add(&mut self, kind: OpKind, inputs: &[NodeId]) -> NodeId {
        match self.try_add(kind.clone(), inputs) {
            Ok(id) => id,
            Err(e) => panic!("cannot add {kind} node: {e}"),
        }
    }

    /// Attaches a debug name to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    pub fn set_name(&mut self, id: NodeId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    // ---- typed builder helpers ----

    /// A value fed at run time.
    pub fn placeholder(&mut self, name: impl Into<String>, shape: impl Into<Shape>) -> NodeId {
        let id = self.add(OpKind::Placeholder { shape: shape.into() }, &[]);
        self.set_name(id, name);
        id
    }

    /// Mutable state initialized to `init`.
    pub fn variable(&mut self, name: impl Into<String>, init: Tensor) -> NodeId {
        let id = self.add(OpKind::Variable { init }, &[]);
        self.set_name(id, name);
        id
    }

    /// An embedded immutable value.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.add(OpKind::Constant(value), &[])
    }

    /// Matrix product `a * b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::MatMul { transpose_a: false, transpose_b: false }, &[a, b])
    }

    /// Matrix product with transposition flags.
    pub fn matmul_t(&mut self, a: NodeId, b: NodeId, transpose_a: bool, transpose_b: bool) -> NodeId {
        self.add(OpKind::MatMul { transpose_a, transpose_b }, &[a, b])
    }

    /// NHWC convolution of `input` by `filter`.
    pub fn conv2d(&mut self, input: NodeId, filter: NodeId, spec: Conv2dSpec) -> NodeId {
        self.add(OpKind::Conv2D(spec), &[input, filter])
    }

    /// NHWC max pooling.
    pub fn max_pool(&mut self, input: NodeId, spec: Pool2dSpec) -> NodeId {
        self.add(OpKind::MaxPool(spec), &[input])
    }

    /// NHWC average pooling.
    pub fn avg_pool(&mut self, input: NodeId, spec: Pool2dSpec) -> NodeId {
        self.add(OpKind::AvgPool(spec), &[input])
    }

    /// Broadcasting `a + b`.
    pub fn add_op(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Add), &[a, b])
    }

    /// Broadcasting `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Sub), &[a, b])
    }

    /// Broadcasting `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Mul), &[a, b])
    }

    /// Broadcasting `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Div), &[a, b])
    }

    /// Broadcasting elementwise maximum.
    pub fn maximum(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Maximum), &[a, b])
    }

    /// Broadcasting elementwise `a > b` as 0/1 values.
    pub fn greater(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Greater), &[a, b])
    }

    /// Elementwise ternary select: `cond != 0 ? a : b`.
    pub fn select(&mut self, cond: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Select), &[cond, a, b])
    }

    /// Maximum along `axis`, optionally keeping the axis.
    pub fn max_axis(&mut self, x: NodeId, axis: usize, keep_dims: bool) -> NodeId {
        self.add(OpKind::MaxReduce { axis, keep_dims }, &[x])
    }

    /// Elementwise negation.
    pub fn neg(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Neg), &[x])
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Exp), &[x])
    }

    /// Elementwise logarithm.
    pub fn log(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Log), &[x])
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Sqrt), &[x])
    }

    /// Elementwise square.
    pub fn square(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Square), &[x])
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Tanh), &[x])
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Sigmoid), &[x])
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::Relu), &[x])
    }

    /// Sum of same-shaped tensors.
    pub fn add_n(&mut self, inputs: &[NodeId]) -> NodeId {
        self.add(OpKind::Elementwise(FusedOp::AddN), inputs)
    }

    /// Sum along `axis` (dropping it).
    pub fn sum_axis(&mut self, x: NodeId, axis: usize) -> NodeId {
        self.add(OpKind::Sum { axis: Some(axis), keep_dims: false }, &[x])
    }

    /// Sum along `axis`, keeping it with extent 1.
    pub fn sum_axis_keep(&mut self, x: NodeId, axis: usize) -> NodeId {
        self.add(OpKind::Sum { axis: Some(axis), keep_dims: true }, &[x])
    }

    /// Sum of all elements.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Sum { axis: None, keep_dims: false }, &[x])
    }

    /// Mean of all elements.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Mean { axis: None, keep_dims: false }, &[x])
    }

    /// Mean along `axis`, optionally keeping the axis.
    pub fn mean_axis(&mut self, x: NodeId, axis: usize, keep_dims: bool) -> NodeId {
        self.add(OpKind::Mean { axis: Some(axis), keep_dims }, &[x])
    }

    /// Softmax along the last axis.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::Softmax, &[x])
    }

    /// Mean softmax cross-entropy of `[batch, classes]` logits against
    /// `[batch]` integer labels.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, labels: NodeId) -> NodeId {
        self.add(OpKind::SoftmaxCrossEntropy, &[logits, labels])
    }

    /// CTC loss of `[T, B, C]` logits against `[B, L]` padded labels.
    pub fn ctc_loss(&mut self, logits: NodeId, labels: NodeId, blank: usize) -> NodeId {
        self.add(OpKind::CtcLoss { blank }, &[logits, labels])
    }

    /// Tiles `x` by `reps` along each axis.
    pub fn tile(&mut self, x: NodeId, reps: Vec<usize>) -> NodeId {
        self.add(OpKind::Tile { reps }, &[x])
    }

    /// I.i.d. standard normal sample of the given shape.
    pub fn random_normal(&mut self, shape: impl Into<Shape>) -> NodeId {
        self.add(
            OpKind::StandardRandomNormal { shape: shape.into(), mean: 0.0, std: 1.0 },
            &[],
        )
    }

    /// Inverted-dropout mask shaped like `x`.
    pub fn dropout_mask(&mut self, x: NodeId, rate: f32) -> NodeId {
        self.add(OpKind::DropoutMask { rate }, &[x])
    }

    /// Reshape to an explicit shape.
    pub fn reshape(&mut self, x: NodeId, shape: impl Into<Shape>) -> NodeId {
        self.add(OpKind::Reshape(shape.into()), &[x])
    }

    /// Axis permutation.
    pub fn transpose(&mut self, x: NodeId, perm: Vec<usize>) -> NodeId {
        self.add(OpKind::Transpose { perm }, &[x])
    }

    /// Concatenation along `axis`.
    pub fn concat(&mut self, inputs: &[NodeId], axis: usize) -> NodeId {
        self.add(OpKind::Concat { axis }, inputs)
    }

    /// Contiguous slice along `axis`.
    pub fn slice(&mut self, x: NodeId, axis: usize, start: usize, len: usize) -> NodeId {
        self.add(OpKind::Slice { axis, start, len }, &[x])
    }

    /// Embedding lookup of `indices` rows in `table`.
    pub fn gather(&mut self, table: NodeId, indices: NodeId) -> NodeId {
        self.add(OpKind::Gather, &[table, indices])
    }

    /// Materializes a node's shape as data.
    pub fn shape_of(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::ShapeOf, &[x])
    }

    /// Identity with blocked gradient.
    pub fn stop_gradient(&mut self, x: NodeId) -> NodeId {
        self.add(OpKind::StopGradient, &[x])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 3));
        let w = g.variable("w", Tensor::ones([3, 2]));
        let y = g.matmul(x, w);
        let z = g.relu(y);
        assert_eq!(g.len(), 4);
        assert_eq!(g.shape(z).dims(), &[4, 2]);
        assert_eq!(g.node(z).inputs, vec![y]);
        assert_eq!(g.node(x).name.as_deref(), Some("x"));
    }

    #[test]
    fn variables_enumerated_in_order() {
        let mut g = Graph::new();
        let _x = g.placeholder("x", Shape::vector(2));
        let a = g.variable("a", Tensor::zeros([2]));
        let b = g.variable("b", Tensor::zeros([2]));
        assert_eq!(g.variables(), vec![a, b]);
    }

    #[test]
    fn try_add_reports_shape_error() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let y = g.placeholder("y", Shape::matrix(4, 5));
        let err = g
            .try_add(OpKind::MatMul { transpose_a: false, transpose_b: false }, &[x, y])
            .unwrap_err();
        assert!(matches!(err, GraphError::Shape { op: "MatMul", .. }));
        assert!(err.to_string().contains("contraction mismatch"));
    }

    #[test]
    fn foreign_node_rejected() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let x = g1.placeholder("x", Shape::vector(2));
        let _ = g1.placeholder("pad", Shape::vector(2));
        let err = g2.try_add(OpKind::Elementwise(FusedOp::Neg), &[x]).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode(x));
    }

    #[test]
    #[should_panic(expected = "cannot add MatMul")]
    fn add_panics_on_bad_shapes() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let y = g.placeholder("y", Shape::matrix(4, 5));
        g.matmul(x, y);
    }

    #[test]
    fn inputs_precede_outputs() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let y = g.neg(x);
        let z = g.add_op(x, y);
        for (id, node) in g.iter() {
            for &input in &node.inputs {
                assert!(input.index() < id.index());
            }
        }
        assert_eq!(g.shape(z).dims(), &[4]);
    }
}
