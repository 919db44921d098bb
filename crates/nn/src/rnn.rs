//! Recurrent layers: LSTM stacks and bidirectional RNNs.
//!
//! Recurrence is realized by *unrolling*: one set of shared weights, one
//! subgraph per timestep — the standard static-graph formulation used by
//! TensorFlow-era models. The elementwise gate arithmetic this produces is
//! what dominates the `seq2seq` profile ("the elementwise multiplications
//! in seq2seq are a result of the LSTM neurons", paper §V-C).

use fathom_dataflow::{Graph, NodeId};

use crate::init::{Init, Params};
use crate::layers::Activation;

/// Shared weights of one LSTM layer.
#[derive(Debug, Clone, Copy)]
pub struct LstmCell {
    /// Combined input+recurrent kernel, `[(input_dim + hidden), 4*hidden]`.
    pub kernel: NodeId,
    /// Gate bias, `[4*hidden]`.
    pub bias: NodeId,
    hidden: usize,
}

impl LstmCell {
    /// Creates the shared parameters for a cell mapping `input_dim`
    /// features to `hidden` units.
    pub fn new(g: &mut Graph, p: &mut Params, name: &str, input_dim: usize, hidden: usize) -> Self {
        let kernel = p.variable(
            g,
            format!("{name}/kernel"),
            [input_dim + hidden, 4 * hidden],
            Init::Xavier,
        );
        // Forget-gate bias of 1.0 (standard trick for gradient flow).
        let mut bias_init = fathom_tensor::Tensor::zeros([4 * hidden]);
        for i in hidden..2 * hidden {
            bias_init.data_mut()[i] = 1.0;
        }
        let bias = p.variable_from(g, format!("{name}/bias"), bias_init);
        LstmCell { kernel, bias, hidden }
    }

    /// Hidden width of the cell.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Applies one step: `(h, c) -> (h', c')` for input `x` of shape
    /// `[batch, input_dim]`.
    pub fn step(&self, g: &mut Graph, x: NodeId, h: NodeId, c: NodeId) -> (NodeId, NodeId) {
        let n = self.hidden;
        let xh = g.concat(&[x, h], 1);
        let z0 = g.matmul(xh, self.kernel);
        let z = g.add_op(z0, self.bias);
        let i_gate = g.slice(z, 1, 0, n);
        let f_gate = g.slice(z, 1, n, n);
        let o_gate = g.slice(z, 1, 2 * n, n);
        let c_cand = g.slice(z, 1, 3 * n, n);
        let i = g.sigmoid(i_gate);
        let f = g.sigmoid(f_gate);
        let o = g.sigmoid(o_gate);
        let cand = g.tanh(c_cand);
        let fc = g.mul(f, c);
        let ic = g.mul(i, cand);
        let c_new = g.add_op(fc, ic);
        let c_act = g.tanh(c_new);
        let h_new = g.mul(o, c_act);
        (h_new, c_new)
    }
}

/// Unrolls a multi-layer LSTM over a sequence of `[batch, dim]` inputs,
/// returning the top layer's output at every timestep.
///
/// # Panics
///
/// Panics if `inputs` is empty or `layers == 0`.
pub fn lstm_stack(
    g: &mut Graph,
    p: &mut Params,
    name: &str,
    inputs: &[NodeId],
    hidden: usize,
    layers: usize,
) -> Vec<NodeId> {
    assert!(!inputs.is_empty(), "lstm_stack needs at least one timestep");
    assert!(layers > 0, "lstm_stack needs at least one layer");
    let batch = g.shape(inputs[0]).dim(0);
    let mut sequence: Vec<NodeId> = inputs.to_vec();
    for layer in 0..layers {
        let input_dim = g.shape(sequence[0]).dim(1);
        let cell = LstmCell::new(g, p, &format!("{name}/layer{layer}"), input_dim, hidden);
        let mut h = g.constant(fathom_tensor::Tensor::zeros([batch, hidden]));
        let mut c = g.constant(fathom_tensor::Tensor::zeros([batch, hidden]));
        let mut outputs = Vec::with_capacity(sequence.len());
        for &x in &sequence {
            let (h2, c2) = cell.step(g, x, h, c);
            h = h2;
            c = c2;
            outputs.push(h);
        }
        sequence = outputs;
    }
    sequence
}

/// A simple (non-gated) recurrent layer run in both directions with
/// summed outputs — the recurrent layer of Deep Speech, which pointedly
/// avoids LSTM circuits ("we do not use Long-Short-Term-Memory circuits").
///
/// Inputs and outputs are per-timestep `[batch, dim]` nodes.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn bidirectional_rnn(
    g: &mut Graph,
    p: &mut Params,
    name: &str,
    inputs: &[NodeId],
    hidden: usize,
) -> Vec<NodeId> {
    assert!(!inputs.is_empty(), "bidirectional_rnn needs at least one timestep");
    let batch = g.shape(inputs[0]).dim(0);
    let input_dim = g.shape(inputs[0]).dim(1);
    let run = |g: &mut Graph, p: &mut Params, dir: &str, seq: Vec<NodeId>| -> Vec<NodeId> {
        let wx = p.variable(g, format!("{name}/{dir}/wx"), [input_dim, hidden], Init::Xavier);
        let wh = p.variable(g, format!("{name}/{dir}/wh"), [hidden, hidden], Init::Xavier);
        let b = p.variable(g, format!("{name}/{dir}/b"), [hidden], Init::Zeros);
        let mut h = g.constant(fathom_tensor::Tensor::zeros([batch, hidden]));
        let mut out = Vec::with_capacity(seq.len());
        for &x in &seq {
            let xw = g.matmul(x, wx);
            let hw = g.matmul(h, wh);
            let s0 = g.add_op(xw, hw);
            let s = g.add_op(s0, b);
            h = Activation::Relu.apply(g, s);
            out.push(h);
        }
        out
    };
    let forward = run(g, p, "fw", inputs.to_vec());
    let mut reversed: Vec<NodeId> = inputs.to_vec();
    reversed.reverse();
    let mut backward = run(g, p, "bw", reversed);
    backward.reverse();
    forward
        .into_iter()
        .zip(backward)
        .map(|(f, b)| g.add_op(f, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::{grad::gradients, Device, Session};
    use fathom_tensor::{Rng, Shape, Tensor};

    #[test]
    fn lstm_step_shapes() {
        let mut g = Graph::new();
        let mut p = Params::seeded(1);
        let cell = LstmCell::new(&mut g, &mut p, "cell", 6, 4);
        let x = g.placeholder("x", Shape::matrix(3, 6));
        let h0 = g.constant(Tensor::zeros([3, 4]));
        let c0 = g.constant(Tensor::zeros([3, 4]));
        let (h1, c1) = cell.step(&mut g, x, h0, c0);
        assert_eq!(g.shape(h1).dims(), &[3, 4]);
        assert_eq!(g.shape(c1).dims(), &[3, 4]);
        assert_eq!(cell.hidden(), 4);
    }

    #[test]
    fn lstm_outputs_bounded_by_tanh() {
        let mut g = Graph::new();
        let mut p = Params::seeded(2);
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let outs = lstm_stack(&mut g, &mut p, "lstm", &[x, x, x], 5, 2);
        assert_eq!(outs.len(), 3);
        let mut s = Session::new(g, Device::cpu(1));
        let mut rng = Rng::seeded(2);
        let val = Tensor::randn([2, 3], 0.0, 2.0, &mut rng);
        let out = s.run1(outs[2], &[(x, val)]).unwrap();
        assert!(out.max() <= 1.0 && out.min() >= -1.0);
    }

    #[test]
    fn lstm_state_carries_information() {
        // Feeding different first inputs must change the last output.
        let mut g = Graph::new();
        let mut p = Params::seeded(3);
        let x0 = g.placeholder("x0", Shape::matrix(1, 2));
        let x1 = g.placeholder("x1", Shape::matrix(1, 2));
        let outs = lstm_stack(&mut g, &mut p, "lstm", &[x0, x1], 4, 1);
        let mut s = Session::new(g, Device::cpu(1));
        let fixed = Tensor::ones([1, 2]);
        let a = s
            .run1(outs[1], &[(x0, Tensor::zeros([1, 2])), (x1, fixed.clone())])
            .unwrap();
        let b = s
            .run1(outs[1], &[(x0, Tensor::filled([1, 2], 5.0)), (x1, fixed)])
            .unwrap();
        assert!(a.max_abs_diff(&b) > 1e-4, "state was ignored");
    }

    #[test]
    fn lstm_gradients_flow_to_all_parameters() {
        let mut g = Graph::new();
        let mut p = Params::seeded(4);
        let x = g.placeholder("x", Shape::matrix(2, 3));
        let outs = lstm_stack(&mut g, &mut p, "lstm", &[x, x], 4, 2);
        let last = *outs.last().unwrap();
        let sq = g.square(last);
        let loss = g.sum_all(sq);
        let grads = gradients(&mut g, loss, p.trainable());
        let mut s = Session::new(g, Device::cpu(1));
        let mut rng = Rng::seeded(4);
        let val = Tensor::randn([2, 3], 0.0, 1.0, &mut rng);
        for (i, &grad) in grads.iter().enumerate() {
            let d = s.run1(grad, &[(x, val.clone())]).unwrap();
            assert!(d.all_finite(), "grad {i} not finite");
            assert!(d.data().iter().any(|&v| v != 0.0), "grad {i} is all zero");
        }
    }

    #[test]
    fn bidirectional_rnn_sees_the_future() {
        // The output at t=0 must depend on the input at t=1 (through the
        // backward pass) — that's the "bidirectional" in Deep Speech.
        let mut g = Graph::new();
        let mut p = Params::seeded(5);
        let x0 = g.placeholder("x0", Shape::matrix(1, 2));
        let x1 = g.placeholder("x1", Shape::matrix(1, 2));
        let outs = bidirectional_rnn(&mut g, &mut p, "birnn", &[x0, x1], 4);
        let mut s = Session::new(g, Device::cpu(1));
        let fixed = Tensor::ones([1, 2]);
        let a = s
            .run1(outs[0], &[(x0, fixed.clone()), (x1, Tensor::zeros([1, 2]))])
            .unwrap();
        let b = s
            .run1(outs[0], &[(x0, fixed), (x1, Tensor::filled([1, 2], 3.0))])
            .unwrap();
        assert!(a.max_abs_diff(&b) > 1e-5, "future input was ignored");
    }

    #[test]
    fn stack_reuses_weights_across_time() {
        let mut g = Graph::new();
        let mut p = Params::seeded(6);
        let x = g.placeholder("x", Shape::matrix(1, 3));
        let before = p.trainable().len();
        let _ = lstm_stack(&mut g, &mut p, "lstm", &[x, x, x, x], 4, 1);
        // One layer = kernel + bias, regardless of sequence length.
        assert_eq!(p.trainable().len() - before, 2);
    }
}
