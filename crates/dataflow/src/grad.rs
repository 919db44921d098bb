//! Symbolic reverse-mode automatic differentiation.
//!
//! Like TensorFlow, gradients are built by *extending the graph*:
//! "operations … double as the mechanism behind its symbolic
//! auto-differentiation support" (paper §V-A). Every backward computation
//! is therefore an ordinary profiled operation — `Conv2DBackpropFilter`,
//! `MaxPoolGrad`, `Tile`, `Sum`, … — which is what makes training profiles
//! (Figures 3, 5, 6) decompose the way the paper shows.

use std::collections::HashMap;

use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::{Shape, Tensor};

use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// Builds gradient nodes of a scalar `loss` with respect to each node in
/// `wrt`, returning one gradient node per entry (a zero constant when the
/// loss does not depend on that node).
///
/// # Panics
///
/// Panics if `loss` is not a scalar, or if the loss's ancestry contains an
/// operation without a registered gradient (second-order gradients and
/// the stateful `Apply` op).
pub fn gradients(g: &mut Graph, loss: NodeId, wrt: &[NodeId]) -> Vec<NodeId> {
    assert!(
        g.shape(loss).is_scalar(),
        "gradients requires a scalar loss, got {}",
        g.shape(loss)
    );

    // Nodes whose value (transitively) depends on some wrt node.
    let mut needs_grad = vec![false; g.len()];
    for &w in wrt {
        needs_grad[w.index()] = true;
    }
    let node_inputs: Vec<Vec<NodeId>> = g.iter().map(|(_, n)| n.inputs.clone()).collect();
    for i in 0..g.len() {
        if !needs_grad[i] && !matches!(g.node(NodeId(i as u32)).kind, OpKind::StopGradient) {
            needs_grad[i] = node_inputs[i].iter().any(|inp| needs_grad[inp.index()]);
        }
    }

    // Nodes the loss actually depends on.
    let mut in_cone = vec![false; g.len()];
    let mut stack = vec![loss];
    while let Some(id) = stack.pop() {
        if in_cone[id.index()] {
            continue;
        }
        in_cone[id.index()] = true;
        stack.extend(node_inputs[id.index()].iter().copied());
    }

    // Accumulated upstream-gradient contributions per node. Only original
    // nodes (below `limit`) are walked; gradient nodes appended during the
    // walk are producers, never consumers.
    let limit = g.len();
    let mut contributions: HashMap<usize, Vec<NodeId>> = HashMap::new();
    let one = g.constant(Tensor::scalar(1.0));
    contributions.insert(loss.index(), vec![one]);
    for idx in (0..limit).rev() {
        let id = NodeId(idx as u32);
        if !in_cone[idx] || !needs_grad[idx] {
            continue;
        }
        let Some(parts) = contributions.remove(&idx) else { continue };
        let upstream = join_contributions(g, &parts);
        contributions.insert(idx, vec![upstream]);
        let kind = g.node(id).kind.clone();
        let inputs = node_inputs[idx].clone();
        let input_grads = backward(g, id, &kind, &inputs, upstream);
        for (input, grad) in input_grads {
            if needs_grad[input.index()] {
                contributions.entry(input.index()).or_default().push(grad);
            }
        }
    }

    wrt.iter()
        .map(|w| match contributions.get(&w.index()) {
            Some(parts) => join_contributions(g, parts),
            None => {
                let zeros = Tensor::zeros(g.shape(*w).clone());
                g.constant(zeros)
            }
        })
        .collect()
}

/// Combines gradient contributions with `AddN` (or passes a single one
/// through).
fn join_contributions(g: &mut Graph, parts: &[NodeId]) -> NodeId {
    match parts {
        [single] => *single,
        many => g.add_n(many),
    }
}

/// Emits the gradient subgraph of one node, returning `(input, grad)`
/// pairs for inputs that receive gradient.
fn backward(
    g: &mut Graph,
    node: NodeId,
    kind: &OpKind,
    inputs: &[NodeId],
    upstream: NodeId,
) -> Vec<(NodeId, NodeId)> {
    use OpKind::*;
    match kind {
        Placeholder { .. } | Variable { .. } | Constant(_) | StopGradient | ShapeOf
        | StandardRandomNormal { .. } | RandomUniform { .. } | DropoutMask { .. } => Vec::new(),

        Identity => vec![(inputs[0], upstream)],

        MatMul { transpose_a, transpose_b } => {
            let (a, b) = (inputs[0], inputs[1]);
            let (da, db) = match (transpose_a, transpose_b) {
                (false, false) => (
                    g.matmul_t(upstream, b, false, true),
                    g.matmul_t(a, upstream, true, false),
                ),
                (true, false) => (
                    g.matmul_t(b, upstream, false, true),
                    g.matmul_t(a, upstream, false, false),
                ),
                (false, true) => (
                    g.matmul_t(upstream, b, false, false),
                    g.matmul_t(upstream, a, true, false),
                ),
                (true, true) => (
                    g.matmul_t(b, upstream, true, true),
                    g.matmul_t(upstream, a, true, true),
                ),
            };
            vec![(a, da), (b, db)]
        }

        Conv2D(spec) => {
            let (x, f) = (inputs[0], inputs[1]);
            let input_shape = g.shape(x).clone();
            let filter_shape = g.shape(f).clone();
            let dx = g.add(
                Conv2DBackpropInput { spec: *spec, input_shape },
                &[f, upstream],
            );
            let df = g.add(
                Conv2DBackpropFilter { spec: *spec, filter_shape },
                &[x, upstream],
            );
            vec![(x, dx), (f, df)]
        }
        MaxPool(spec) => {
            let x = inputs[0];
            let dx = g.add(MaxPoolGrad(*spec), &[x, upstream]);
            vec![(x, dx)]
        }
        AvgPool(spec) => {
            let x = inputs[0];
            let input_shape = g.shape(x).clone();
            let dx = g.add(AvgPoolGrad { spec: *spec, input_shape }, &[upstream]);
            vec![(x, dx)]
        }

        Elementwise(op) => elementwise_backward(g, node, *op, inputs, upstream),
        MaxReduce { axis, keep_dims } => {
            // Route gradient to the max positions, split evenly on ties.
            let x = inputs[0];
            let x_shape = g.shape(x).clone();
            let max_kept = if *keep_dims {
                node
            } else {
                let s = x_shape.with_axis_one(*axis);
                g.reshape(node, s)
            };
            let mask = g.add(Elementwise(FusedOp::Equal), &[x, max_kept]); // broadcasts
            let count = g.sum_axis_keep(mask, *axis);
            let share = g.div(mask, count);
            let g_kept = if *keep_dims {
                upstream
            } else {
                let s = x_shape.with_axis_one(*axis);
                g.reshape(upstream, s)
            };
            let dx = g.mul(share, g_kept);
            vec![(x, dx)]
        }
        Sum { axis, keep_dims } => {
            let x_shape = g.shape(inputs[0]).clone();
            let dx = expand_reduction_grad(g, upstream, &x_shape, *axis, *keep_dims, None);
            vec![(inputs[0], dx)]
        }
        Mean { axis, keep_dims } => {
            let x_shape = g.shape(inputs[0]).clone();
            let count = match axis {
                None => x_shape.num_elements(),
                Some(a) => x_shape.dim(*a),
            };
            let scale = 1.0 / count.max(1) as f32;
            let dx = expand_reduction_grad(g, upstream, &x_shape, *axis, *keep_dims, Some(scale));
            vec![(inputs[0], dx)]
        }
        Softmax => {
            let dx = g.add(SoftmaxGrad, &[node, upstream]);
            vec![(inputs[0], dx)]
        }
        LogSoftmax => {
            // dx = g - softmax(x) * sum(g, last_axis, keep)
            let rank = g.shape(node).rank();
            let sum_g = g.sum_axis_keep(upstream, rank - 1);
            let sm = g.exp(node);
            let correction = g.mul(sm, sum_g);
            let dx = g.sub(upstream, correction);
            vec![(inputs[0], dx)]
        }
        SoftmaxCrossEntropy => {
            let (logits, labels) = (inputs[0], inputs[1]);
            let dlogits0 = g.add(SoftmaxCrossEntropyGrad, &[logits, labels]);
            let dlogits = g.mul(dlogits0, upstream);
            vec![(logits, dlogits)]
        }
        CtcLoss { blank } => {
            let (logits, labels) = (inputs[0], inputs[1]);
            let dlogits0 = g.add(CtcLossGrad { blank: *blank }, &[logits, labels]);
            let dlogits = g.mul(dlogits0, upstream);
            vec![(logits, dlogits)]
        }
        Tile { reps } => {
            // Reshape g to [r0, d0, r1, d1, ...] and sum the rep axes.
            let x_shape = g.shape(inputs[0]).clone();
            let mut interleaved = Vec::with_capacity(x_shape.rank() * 2);
            for (d, r) in x_shape.dims().iter().zip(reps) {
                interleaved.push(*r);
                interleaved.push(*d);
            }
            let mut dx = g.reshape(upstream, Shape::new(interleaved));
            for axis in (0..x_shape.rank()).rev() {
                // After removing later rep axes, the rep axis for `axis`
                // sits at position 2*axis.
                dx = g.sum_axis(dx, 2 * axis);
            }
            vec![(inputs[0], dx)]
        }

        Reshape(_) => {
            let x_shape = g.shape(inputs[0]).clone();
            let dx = g.reshape(upstream, x_shape);
            vec![(inputs[0], dx)]
        }
        Transpose { perm } => {
            let mut inverse = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            let dx = g.transpose(upstream, inverse);
            vec![(inputs[0], dx)]
        }
        Concat { axis } => {
            let mut out = Vec::with_capacity(inputs.len());
            let mut offset = 0;
            for &input in inputs {
                let extent = g.shape(input).dim(*axis);
                let part = g.slice(upstream, *axis, offset, extent);
                offset += extent;
                out.push((input, part));
            }
            out
        }
        Slice { axis, start, len } => {
            // Pad the gradient back to the input extent with zero blocks.
            let x_shape = g.shape(inputs[0]).clone();
            let extent = x_shape.dim(*axis);
            let mut parts = Vec::new();
            if *start > 0 {
                let mut dims = x_shape.dims().to_vec();
                dims[*axis] = *start;
                parts.push(g.constant(Tensor::zeros(Shape::new(dims))));
            }
            parts.push(upstream);
            if start + len < extent {
                let mut dims = x_shape.dims().to_vec();
                dims[*axis] = extent - start - len;
                parts.push(g.constant(Tensor::zeros(Shape::new(dims))));
            }
            let dx = if parts.len() == 1 { parts[0] } else { g.concat(&parts, *axis) };
            vec![(inputs[0], dx)]
        }
        Gather => {
            let (table, indices) = (inputs[0], inputs[1]);
            let vocab = g.shape(table).dim(0);
            let dim = g.shape(table).dim(1);
            let dtable = g.add(ScatterAddRows { vocab, dim }, &[indices, upstream]);
            vec![(table, dtable)]
        }

        // Fusion runs after autodiff; a Fused node in a graph
        // still being differentiated is a pipeline-ordering bug.
        SoftmaxGrad
        | SoftmaxCrossEntropyGrad | CtcLossGrad { .. } | Conv2DBackpropInput { .. }
        | Conv2DBackpropFilter { .. } | MaxPoolGrad(_) | AvgPoolGrad { .. }
        | ScatterAddRows { .. } | Apply(_) | Group | Fused(_) | GemmFused { .. } => {
            panic!("no gradient registered for {kind}")
        }
    }
}

/// Emits the gradient subgraph of one class-C node: one rule per op of
/// the table.
fn elementwise_backward(
    g: &mut Graph,
    node: NodeId,
    op: FusedOp,
    inputs: &[NodeId],
    upstream: NodeId,
) -> Vec<(NodeId, NodeId)> {
    use FusedOp::*;
    let ew = |op: FusedOp| OpKind::Elementwise(op);
    match op {
        Add => {
            let da = broadcast_grad(g, upstream, inputs[0]);
            let db = broadcast_grad(g, upstream, inputs[1]);
            vec![(inputs[0], da), (inputs[1], db)]
        }
        Sub => {
            let da = broadcast_grad(g, upstream, inputs[0]);
            let neg = g.neg(upstream);
            let db = broadcast_grad(g, neg, inputs[1]);
            vec![(inputs[0], da), (inputs[1], db)]
        }
        Mul => {
            let (a, b) = (inputs[0], inputs[1]);
            let ga = g.mul(upstream, b);
            let da = broadcast_grad(g, ga, a);
            let gb = g.mul(upstream, a);
            let db = broadcast_grad(g, gb, b);
            vec![(a, da), (b, db)]
        }
        Div => {
            let (a, b) = (inputs[0], inputs[1]);
            let ga = g.div(upstream, b);
            let da = broadcast_grad(g, ga, a);
            // db = -g * (a / b^2) = -g * out / b
            let out_over_b = g.div(node, b);
            let gb0 = g.mul(upstream, out_over_b);
            let gb = g.neg(gb0);
            let db = broadcast_grad(g, gb, b);
            vec![(a, da), (b, db)]
        }
        Maximum => {
            // d/da = g where a >= b; d/db = g where b > a.
            let (a, b) = (inputs[0], inputs[1]);
            let a_wins = g.add(ew(GreaterEqual), &[a, b]);
            let ga0 = g.mul(upstream, a_wins);
            let da = broadcast_grad(g, ga0, a);
            let b_wins = g.add(ew(Greater), &[b, a]);
            let gb0 = g.mul(upstream, b_wins);
            let db = broadcast_grad(g, gb0, b);
            vec![(a, da), (b, db)]
        }
        Pow => {
            // d/da = g * b * a^(b-1); d/db = g * a^b * ln(a).
            // The ln(a) term is only finite for positive bases, matching
            // the mathematical domain of d(a^b)/db.
            let (a, b) = (inputs[0], inputs[1]);
            let one = g.constant(Tensor::scalar(1.0));
            let b_minus_1 = g.sub(b, one);
            let pow_bm1 = g.add(ew(Pow), &[a, b_minus_1]);
            let scaled = g.mul(b, pow_bm1);
            let ga0 = g.mul(upstream, scaled);
            let da = broadcast_grad(g, ga0, a);
            let ln_a = g.log(a);
            let out_ln = g.mul(node, ln_a);
            let gb0 = g.mul(upstream, out_ln);
            let db = broadcast_grad(g, gb0, b);
            vec![(a, da), (b, db)]
        }
        Select => {
            // cond gets no gradient; a gets g*mask, b gets g*(1-mask).
            // The mask is the forward predicate itself (`cond != 0`, so
            // a negative or NaN condition picks `a`), as 0/1.
            let (cond, a, b) = (inputs[0], inputs[1], inputs[2]);
            let one = g.constant(Tensor::scalar(1.0));
            let zero = g.constant(Tensor::scalar(0.0));
            let mask = g.select(cond, one, zero);
            let ga0 = g.mul(upstream, mask);
            let da = broadcast_grad(g, ga0, a);
            let inv = g.sub(one, mask);
            let gb0 = g.mul(upstream, inv);
            let db = broadcast_grad(g, gb0, b);
            vec![(a, da), (b, db)]
        }
        Neg => {
            let dx = g.neg(upstream);
            vec![(inputs[0], dx)]
        }
        Exp => {
            let dx = g.mul(upstream, node);
            vec![(inputs[0], dx)]
        }
        Log => {
            let dx = g.div(upstream, inputs[0]);
            vec![(inputs[0], dx)]
        }
        Sqrt => {
            let two = g.constant(Tensor::scalar(2.0));
            let denom = g.mul(two, node);
            let dx = g.div(upstream, denom);
            vec![(inputs[0], dx)]
        }
        Square => {
            let two = g.constant(Tensor::scalar(2.0));
            let gx = g.mul(upstream, inputs[0]);
            let dx = g.mul(two, gx);
            vec![(inputs[0], dx)]
        }
        Tanh => {
            let dx = g.add(ew(TanhGrad), &[node, upstream]);
            vec![(inputs[0], dx)]
        }
        Sigmoid => {
            let dx = g.add(ew(SigmoidGrad), &[node, upstream]);
            vec![(inputs[0], dx)]
        }
        Relu => {
            let dx = g.add(ew(ReluGrad), &[inputs[0], upstream]);
            vec![(inputs[0], dx)]
        }
        AddN => inputs.iter().map(|&i| (i, upstream)).collect(),
        Greater | GreaterEqual | Equal => Vec::new(),
        ReluGrad | TanhGrad | SigmoidGrad => panic!("no gradient registered for {}", op.name()),
    }
}

/// Gradient of an implicit broadcast: sums `grad` down to `target`'s shape
/// by emitting `Sum` nodes, mirroring TensorFlow's broadcast gradients.
fn broadcast_grad(g: &mut Graph, grad: NodeId, target: NodeId) -> NodeId {
    let target_shape = g.shape(target).clone();
    let mut current = grad;
    while g.shape(current).rank() > target_shape.rank() {
        current = g.sum_axis(current, 0);
    }
    for axis in 0..target_shape.rank() {
        if target_shape.dim(axis) == 1 && g.shape(current).dim(axis) != 1 {
            current = g.sum_axis_keep(current, axis);
        }
    }
    current
}

/// Expands a reduction's upstream gradient back to the input shape with
/// `Reshape` + `Tile` (+ optional scalar scale for `Mean`).
fn expand_reduction_grad(
    g: &mut Graph,
    upstream: NodeId,
    x_shape: &Shape,
    axis: Option<usize>,
    keep_dims: bool,
    scale: Option<f32>,
) -> NodeId {
    let mut grad = upstream;
    if let Some(s) = scale {
        let c = g.constant(Tensor::scalar(s));
        grad = g.mul(grad, c);
    }
    match axis {
        None => {
            // Scalar -> full shape: reshape to all-ones rank then tile.
            let ones_shape = Shape::new(vec![1; x_shape.rank()]);
            let reshaped = g.reshape(grad, ones_shape);
            g.tile(reshaped, x_shape.dims().to_vec())
        }
        Some(a) => {
            let kept = if keep_dims {
                grad
            } else {
                let s = x_shape.with_axis_one(a);
                g.reshape(grad, s)
            };
            let mut reps = vec![1; x_shape.rank()];
            reps[a] = x_shape.dim(a);
            g.tile(kept, reps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use fathom_tensor::Rng;

    /// Checks d(loss)/d(x) against central finite differences for every
    /// element of a fed placeholder.
    fn check_placeholder_grad(
        graph: &Graph,
        loss: NodeId,
        grad: NodeId,
        x: NodeId,
        x_value: &Tensor,
        tol: f32,
    ) {
        let mut sess = Session::new(graph.clone(), Device::cpu(1));
        let analytic = sess.run1(grad, &[(x, x_value.clone())]).unwrap();
        let eps = 1e-2;
        for idx in 0..x_value.len() {
            let mut xp = x_value.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x_value.clone();
            xm.data_mut()[idx] -= eps;
            let fp = sess.run1(loss, &[(x, xp)]).unwrap().scalar_value();
            let fm = sess.run1(loss, &[(x, xm)]).unwrap().scalar_value();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < tol,
                "grad[{idx}]: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn matmul_chain_gradient() {
        let mut rng = Rng::seeded(1);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(3, 4));
        let w = g.constant(Tensor::randn([4, 2], 0.0, 1.0, &mut rng));
        let y = g.matmul(x, w);
        let act = g.tanh(y);
        let loss = g.sum_all(act);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::randn([3, 4], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 2e-2);
    }

    #[test]
    fn broadcast_add_gradient() {
        let mut rng = Rng::seeded(2);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let m = g.constant(Tensor::randn([4, 3], 0.0, 1.0, &mut rng));
        let y = g.add_op(m, x); // broadcasts x across rows
        let sq = g.square(y);
        let loss = g.sum_all(sq);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::randn([3], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 2e-2);
    }

    #[test]
    fn division_gradient() {
        let mut rng = Rng::seeded(3);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let c = g.constant(Tensor::from(vec![1.0, 2.0, 3.0, 4.0]));
        let y = g.div(c, x);
        let loss = g.sum_all(y);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::rand_uniform([4], 1.0, 2.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 2e-2);
    }

    #[test]
    fn mean_and_tile_gradients() {
        let mut rng = Rng::seeded(4);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let t = g.tile(x, vec![2, 2]); // [4, 6]
        let m = g.mean_all(t);
        let grads = gradients(&mut g, m, &[x]);
        let x_val = Tensor::randn([2, 3], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, m, grads[0], x, &x_val, 1e-2);
    }

    #[test]
    fn softmax_cross_entropy_gradient() {
        let mut rng = Rng::seeded(5);
        let mut g = Graph::new();
        let logits = g.placeholder("logits", Shape::matrix(3, 5));
        let labels = g.constant(Tensor::from(vec![1.0, 4.0, 0.0]));
        let loss = g.softmax_cross_entropy(logits, labels);
        let grads = gradients(&mut g, loss, &[logits]);
        let l_val = Tensor::randn([3, 5], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], logits, &l_val, 1e-2);
    }

    #[test]
    fn conv_and_pool_gradient() {
        use fathom_tensor::kernels::conv::Conv2dSpec;
        use fathom_tensor::kernels::pool2d::Pool2dSpec;
        let mut rng = Rng::seeded(6);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::new(vec![1, 6, 6, 2]));
        let f = g.constant(Tensor::randn([3, 3, 2, 3], 0.0, 0.5, &mut rng));
        let conv = g.conv2d(x, f, Conv2dSpec::same(3));
        let act = g.relu(conv);
        let pooled = g.max_pool(act, Pool2dSpec::square(2));
        let loss = g.sum_all(pooled);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::randn([1, 6, 6, 2], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 5e-2);
    }

    #[test]
    fn concat_slice_transpose_gradient() {
        let mut rng = Rng::seeded(7);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let t = g.transpose(x, vec![1, 0]); // [3, 2]
        let c = g.constant(Tensor::randn([3, 2], 0.0, 1.0, &mut rng));
        let cat = g.concat(&[t, c], 1); // [3, 4]
        let part = g.slice(cat, 1, 1, 2); // [3, 2]
        let sq = g.square(part);
        let loss = g.sum_all(sq);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::randn([2, 3], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 2e-2);
    }

    #[test]
    fn gather_gradient_accumulates_repeats() {
        let mut g = Graph::new();
        let table = g.variable("emb", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let idx = g.constant(Tensor::from(vec![1.0, 1.0, 0.0]));
        let rows = g.gather(table, idx);
        let loss = g.sum_all(rows);
        let grads = gradients(&mut g, loss, &[table]);
        let mut sess = Session::new(g, Device::cpu(1));
        let dtable = sess.run1(grads[0], &[]).unwrap();
        // Row 1 gathered twice, row 0 once.
        assert_eq!(dtable.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn stop_gradient_blocks_flow() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let blocked = g.stop_gradient(x);
        let y = g.square(blocked);
        let loss = g.sum_all(y);
        let grads = gradients(&mut g, loss, &[x]);
        let mut sess = Session::new(g, Device::cpu(1));
        let dx = sess.run1(grads[0], &[(x, Tensor::from(vec![3.0, 4.0]))]).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0]);
    }

    #[test]
    fn unrelated_variable_gets_zero_gradient() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let v = g.variable("unused", Tensor::ones([3]));
        let y = g.square(x);
        let loss = g.sum_all(y);
        let grads = gradients(&mut g, loss, &[v]);
        let mut sess = Session::new(g, Device::cpu(1));
        let dv = sess.run1(grads[0], &[(x, Tensor::zeros([2]))]).unwrap();
        assert_eq!(dv.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn fan_out_accumulates_with_add_n() {
        // x used twice: loss = sum(x*x + x) -> dx = 2x + 1
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let sq = g.mul(x, x);
        let s = g.add_op(sq, x);
        let loss = g.sum_all(s);
        let grads = gradients(&mut g, loss, &[x]);
        let mut sess = Session::new(g, Device::cpu(1));
        let dx = sess.run1(grads[0], &[(x, Tensor::from(vec![1.0, -2.0]))]).unwrap();
        assert_eq!(dx.data(), &[3.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_loss_panics() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        gradients(&mut g, x, &[x]);
    }

    #[test]
    fn maximum_gradient_routes_to_the_winner() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let c = g.constant(Tensor::from(vec![0.0, 5.0, -2.0]));
        let m = g.maximum(x, c);
        let loss = g.sum_all(m);
        let grads = gradients(&mut g, loss, &[x]);
        let mut sess = Session::new(g, Device::cpu(1));
        let dx = sess
            .run1(grads[0], &[(x, Tensor::from(vec![1.0, 1.0, 1.0]))])
            .unwrap();
        // x wins at indices 0 and 2, loses at 1.
        assert_eq!(dx.data(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn pow_gradient_matches_finite_differences() {
        let mut rng = Rng::seeded(31);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let e = g.constant(Tensor::from(vec![2.0, 3.0, 0.5, 1.5]));
        let p = g.add(OpKind::Elementwise(FusedOp::Pow), &[x, e]);
        let loss = g.sum_all(p);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::rand_uniform([4], 0.5, 2.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 5e-2);
    }

    #[test]
    fn select_gradient_masks_branches() {
        // The gradient follows the branch the forward pass took: `x`
        // wherever `cond != 0`, negative and NaN conditions included.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(5));
        let fallback = g.placeholder("fallback", Shape::vector(5));
        let cond = g.constant(Tensor::from(vec![1.0, 0.0, -1.0, f32::NAN, 2.0]));
        let sel = g.select(cond, x, fallback);
        let loss = g.sum_all(sel);
        let grads = gradients(&mut g, loss, &[x, fallback]);
        let mut sess = Session::new(g, Device::cpu(1));
        let feeds = [
            (x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            (fallback, Tensor::from(vec![7.0, 8.0, 9.0, 10.0, 11.0])),
        ];
        let out = sess.run(&[sel, grads[0], grads[1]], &feeds).unwrap();
        assert_eq!(out[0].data(), &[1.0, 8.0, 3.0, 4.0, 5.0]);
        assert_eq!(out[1].data(), &[1.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(out[2].data(), &[0.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_reduce_gradient_splits_ties() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let m = g.max_axis(x, 1, false);
        let loss = g.sum_all(m);
        let grads = gradients(&mut g, loss, &[x]);
        let mut sess = Session::new(g, Device::cpu(1));
        // Row 0: unique max at index 2. Row 1: tie between 0 and 1.
        let dx = sess
            .run1(
                grads[0],
                &[(x, Tensor::from_vec(vec![1.0, 2.0, 7.0, 4.0, 4.0, 0.0], [2, 3]))],
            )
            .unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn lstm_style_composite_gradient() {
        // sigmoid/tanh gates with elementwise state update.
        let mut rng = Rng::seeded(8);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(2, 4));
        let w = g.constant(Tensor::randn([4, 4], 0.0, 0.5, &mut rng));
        let pre = g.matmul(x, w);
        let gate = g.sigmoid(pre);
        let cand = g.tanh(pre);
        let state = g.mul(gate, cand);
        let loss = g.sum_all(state);
        let grads = gradients(&mut g, loss, &[x]);
        let x_val = Tensor::randn([2, 4], 0.0, 1.0, &mut rng);
        check_placeholder_grad(&g, loss, grads[0], x, &x_val, 2e-2);
    }
}
