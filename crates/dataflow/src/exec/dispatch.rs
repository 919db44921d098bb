//! Op dispatch: one node's value from its inputs. [`dispatch_op`] is the
//! only place an [`OpKind`] meets a kernel, and `super::step::run_node`
//! is its only caller.

use std::collections::HashMap;

use fathom_tensor::kernels::conv as kconv;
use fathom_tensor::kernels::ctc as kctc;
use fathom_tensor::kernels::elementwise as kew;
use fathom_tensor::kernels::gemm as kgemm;
use fathom_tensor::kernels::pool2d as kpool;
use fathom_tensor::kernels::reduce as kred;
use fathom_tensor::kernels::softmax as ksm;
use fathom_tensor::kernels::transform as ktf;
use fathom_tensor::{ExecPool, Precision, Tensor};

use super::session::SessionState;
use super::ExecError;
use crate::graph::{Graph, NodeId};
use crate::op::{GemmOp, OpKind};

/// Resolves the variable an `Apply` node updates.
fn variable_target(graph: &Graph, state: &SessionState, apply: NodeId) -> Result<NodeId, ExecError> {
    let var_id = graph.node(apply).inputs[0];
    if state.variables.contains_key(&var_id) {
        Ok(var_id)
    } else {
        Err(ExecError::NotAVariable(var_id))
    }
}

/// Computes one node's value. `resolve` maps an input id to its computed
/// tensor; `state` must be `Some` for ops where [`OpKind::needs_serial`]
/// is true (the schedulers guarantee those run with exclusive access to
/// the session state, on one thread, in plan order). `precision` is the
/// session's knob; MatMul-family dispatch hands it to `gemm::select`,
/// which alone picks the engine for the geometry.
#[allow(clippy::too_many_lines)]
pub(super) fn dispatch_op<'v, F>(
    graph: &Graph,
    pool: &ExecPool,
    id: NodeId,
    feeds: &HashMap<NodeId, &Tensor>,
    resolve: F,
    mut state: Option<&mut SessionState>,
    precision: Precision,
) -> Result<Tensor, ExecError>
where
    F: Fn(NodeId) -> &'v Tensor,
{
    let node = graph.node(id);
    let inputs = &node.inputs;
    let input = |i: usize| -> &'v Tensor { resolve(inputs[i]) };
    fn take_state<'a>(state: &mut Option<&'a mut SessionState>) -> &'a mut SessionState {
        state.take().expect("stateful op scheduled with session state")
    }
    let mut serial_state = || take_state(&mut state);
    let out = match &node.kind {
        OpKind::Placeholder { .. } => {
            (*feeds.get(&id).ok_or(ExecError::MissingFeed(id))?).clone()
        }
        OpKind::Variable { .. } => serial_state().variables[&id].clone(),
        OpKind::Constant(t) => t.clone(),
        OpKind::Identity | OpKind::StopGradient => input(0).clone(),

        OpKind::MatMul { transpose_a, transpose_b } => {
            kgemm::matmul(input(0), input(1), *transpose_a, *transpose_b, precision, None, pool)
        }

        // Convolution is the GEMM engine under a patch view of its
        // activation operand: one call per op, f32 panels at any session
        // precision.
        OpKind::Conv2D(spec) => kconv::conv2d(input(0), input(1), *spec, None, pool),
        OpKind::Conv2DBackpropInput { spec, input_shape } => {
            kconv::conv2d_backprop_input(input_shape, input(0), input(1), *spec, pool)
        }
        OpKind::Conv2DBackpropFilter { spec, filter_shape } => {
            kconv::conv2d_backprop_filter(input(0), filter_shape, input(1), *spec, pool)
        }
        OpKind::MaxPool(spec) => kpool::max_pool(input(0), *spec, pool),
        OpKind::MaxPoolGrad(spec) => kpool::max_pool_grad(input(0), input(1), *spec, pool),
        OpKind::AvgPool(spec) => kpool::avg_pool(input(0), *spec, pool),
        OpKind::AvgPoolGrad { spec, input_shape } => {
            kpool::avg_pool_grad(input_shape, input(0), *spec, pool)
        }

        // Class C: the standalone kernel of the kind's op table row.
        OpKind::Elementwise(op) => {
            let tensors: Vec<&Tensor> = (0..inputs.len()).map(input).collect();
            kew::eval(*op, &tensors, pool)
        }
        OpKind::Fused(program) => {
            let tensors: Vec<&Tensor> = (0..inputs.len()).map(input).collect();
            program.eval(&tensors, pool)
        }
        // GEMM with the epilogue applied in the microkernel writeback.
        // Inputs are [a, b, operands...]. A matmul whose runtime shape
        // `gemm::select` leaves to the row kernel applies the program as
        // one flat pass instead, bitwise-identically.
        OpKind::GemmFused { gemm, epilogue } => {
            let operands: Vec<&[f32]> = (2..inputs.len()).map(|i| input(i).data()).collect();
            let fused = Some((epilogue, operands.as_slice()));
            match gemm {
                GemmOp::MatMul { transpose_a, transpose_b } => {
                    kgemm::matmul(input(0), input(1), *transpose_a, *transpose_b, precision, fused, pool)
                }
                GemmOp::Conv2D(spec) => kconv::conv2d(input(0), input(1), *spec, fused, pool),
            }
        }

        OpKind::Sum { axis, keep_dims } => match axis {
            Some(a) => kred::reduce_axis(input(0), *a, kred::ReduceKind::Sum, *keep_dims, pool),
            None => kred::reduce_all_sum(input(0), pool),
        },
        OpKind::Mean { axis, keep_dims } => match axis {
            Some(a) => kred::reduce_axis(input(0), *a, kred::ReduceKind::Mean, *keep_dims, pool),
            None => kred::reduce_all_mean(input(0), pool),
        },
        OpKind::MaxReduce { axis, keep_dims } => {
            kred::reduce_axis(input(0), *axis, kred::ReduceKind::Max, *keep_dims, pool)
        }
        OpKind::Softmax => ksm::softmax(input(0), pool),
        OpKind::LogSoftmax => ksm::log_softmax(input(0), pool),
        OpKind::SoftmaxGrad => ksm::softmax_grad(input(0), input(1), pool),
        OpKind::SoftmaxCrossEntropy => ksm::softmax_cross_entropy(input(0), input(1), pool).0,
        OpKind::SoftmaxCrossEntropyGrad => {
            ksm::softmax_cross_entropy(input(0), input(1), pool).1
        }
        OpKind::CtcLoss { blank } => {
            let labels = decode_padded_labels(input(1), input(0).shape().dim(2), *blank)?;
            Tensor::scalar(kctc::ctc_loss(input(0), &labels, *blank, pool).0)
        }
        OpKind::CtcLossGrad { blank } => {
            let labels = decode_padded_labels(input(1), input(0).shape().dim(2), *blank)?;
            kctc::ctc_loss(input(0), &labels, *blank, pool).1
        }
        OpKind::Tile { reps } => ktf::tile(input(0), reps, pool),

        OpKind::StandardRandomNormal { shape, mean, std } => {
            Tensor::randn(shape.clone(), *mean, *std, &mut serial_state().rng)
        }
        OpKind::RandomUniform { shape, lo, hi } => {
            Tensor::rand_uniform(shape.clone(), *lo, *hi, &mut serial_state().rng)
        }
        OpKind::DropoutMask { rate } => {
            let st = serial_state();
            let keep = 1.0 / (1.0 - rate);
            let mut mask = Tensor::zeros(input(0).shape().clone());
            let rate = *rate;
            for v in mask.data_mut() {
                *v = if st.rng.uniform() < rate { 0.0 } else { keep };
            }
            mask
        }

        // Class F: the node's optimizer names the slots to journal and
        // the update to run. The update is out of place: the journal
        // shares the prior variable and slot buffers (no copy), the
        // update reads them and writes fresh ones, and the output shares
        // the new variable.
        OpKind::Apply(opt) => {
            let st = serial_state();
            let var_id = variable_target(graph, st, id)?;
            st.journal_variable(var_id);
            let mut slots: Vec<Tensor> = opt
                .slots()
                .iter()
                .map(|slot| {
                    st.journal_slot((id, slot.name));
                    st.slots.remove(&(id, slot.name)).unwrap_or_else(|| slot.init(&node.shape))
                })
                .collect();
            let var = opt.update(&st.variables[&var_id], input(1).data(), &mut slots, pool);
            for (slot, value) in opt.slots().iter().zip(slots) {
                st.slots.insert((id, slot.name), value);
            }
            st.variables.insert(var_id, var.clone());
            var
        }
        OpKind::Group => Tensor::scalar(0.0),

        OpKind::Reshape(shape) => input(0).clone().reshaped(shape.clone()),
        OpKind::Transpose { perm } => ktf::transpose(input(0), perm, pool),
        OpKind::Concat { axis } => {
            let tensors: Vec<&Tensor> = (0..inputs.len()).map(input).collect();
            ktf::concat(&tensors, *axis, pool)
        }
        OpKind::Slice { axis, start, len } => ktf::slice_axis(input(0), *axis, *start, *len, pool),
        OpKind::Gather => ktf::gather_rows(input(0), input(1), pool),
        OpKind::ScatterAddRows { vocab, dim } => {
            ktf::scatter_add_rows(*vocab, *dim, input(0), input(1))
        }
        OpKind::ShapeOf => {
            let dims: Vec<f32> = input(0).shape().dims().iter().map(|&d| d as f32).collect();
            Tensor::from(dims)
        }
    };
    Ok(out)
}

/// Decodes a `[batch, max_len]` label tensor padded with `-1` into per-item
/// label sequences for `[time, batch, classes]` logits. Labels are fed by the caller, so every entry is
/// checked here — finite, below `classes`, not the blank — and a bad
/// feed is a typed error, never an assertion inside the CTC kernel.
fn decode_padded_labels(labels: &Tensor, classes: usize, blank: usize) -> Result<Vec<Vec<usize>>, ExecError> {
    let batch = labels.shape().dim(0);
    let max_len = labels.shape().dim(1);
    let mut out = Vec::with_capacity(batch);
    for b in 0..batch {
        let mut seq = Vec::new();
        for l in 0..max_len {
            let v = labels.at(&[b, l]);
            if !v.is_finite() {
                return Err(ExecError::BadLabels(format!("label {v} at [{b}, {l}] is not finite")));
            }
            if v < 0.0 {
                break;
            }
            if v >= classes as f32 {
                return Err(ExecError::BadLabels(format!(
                    "label {v} at [{b}, {l}] is out of range for {classes} classes"
                )));
            }
            let v = v as usize;
            if v == blank {
                return Err(ExecError::BadLabels(format!(
                    "label {v} equals the blank symbol at [{b}, {l}]"
                )));
            }
            seq.push(v);
        }
        out.push(seq);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use crate::optim::Optimizer;
    use fathom_tensor::Shape;

    #[test]
    fn sgd_apply_updates_variable() {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![1.0, 1.0]));
        let grad = g.constant(Tensor::from(vec![0.5, -0.5]));
        let apply = g.add(OpKind::Apply(Optimizer::Sgd { lr: 0.1 }), &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        s.run(&[apply], &[]).unwrap();
        let v_now = s.variable_value(v).unwrap();
        assert!((v_now.data()[0] - 0.95).abs() < 1e-6);
        assert!((v_now.data()[1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![0.0]));
        let grad = g.constant(Tensor::from(vec![1.0]));
        let apply = g.add(OpKind::Apply(Optimizer::Momentum { lr: 1.0, momentum: 0.5 }), &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        s.run(&[apply], &[]).unwrap(); // velocity 1.0, v = -1.0
        s.run(&[apply], &[]).unwrap(); // velocity 1.5, v = -2.5
        assert!((s.variable_value(v).unwrap().data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn rmsprop_normalizes_step_size() {
        // With a constant gradient, RMSProp steps approach lr/sqrt(g^2)*g
        // = lr * sign(g) as ms converges; verify the variable decreases.
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![5.0]));
        let grad = g.constant(Tensor::from(vec![2.0]));
        let apply = g.add(
            OpKind::Apply(Optimizer::RmsProp { lr: 0.1, decay: 0.9, momentum: 0.0, epsilon: 1e-8 }),
            &[v, grad],
        );
        let mut s = Session::new(g, Device::cpu(1));
        let mut prev = 5.0;
        for _ in 0..10 {
            s.run(&[apply], &[]).unwrap();
            let now = s.variable_value(v).unwrap().data()[0];
            assert!(now < prev);
            prev = now;
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (v - 3)^2 with Adam using graph-built gradient 2(v-3).
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![0.0]));
        let target = g.constant(Tensor::from(vec![3.0]));
        let diff = g.sub(v, target);
        let two = g.constant(Tensor::scalar(2.0));
        let grad = g.mul(diff, two);
        let apply = g.add(OpKind::Apply(Optimizer::adam(0.1)), &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        for _ in 0..200 {
            s.run(&[apply], &[]).unwrap();
        }
        let now = s.variable_value(v).unwrap().data()[0];
        assert!((now - 3.0).abs() < 0.05, "v = {now}");
    }

    #[test]
    fn random_ops_are_deterministic_per_seed() {
        let mut g = Graph::new();
        let r = g.random_normal([16]);
        let mut s1 = Session::with_seed(g.clone(), Device::cpu(1), 99);
        let mut s2 = Session::with_seed(g, Device::cpu(1), 99);
        assert_eq!(s1.run1(r, &[]).unwrap(), s2.run1(r, &[]).unwrap());
    }

    #[test]
    fn dropout_mask_statistics() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(10_000));
        let mask = g.dropout_mask(x, 0.25);
        let mut s = Session::new(g, Device::cpu(1));
        let m = s.run1(mask, &[(x, Tensor::zeros([10_000]))]).unwrap();
        let zeros = m.data().iter().filter(|&&v| v == 0.0).count();
        let kept = m.data().iter().find(|&&v| v != 0.0).copied().unwrap();
        assert!((zeros as f32 / 10_000.0 - 0.25).abs() < 0.03);
        assert!((kept - 1.0 / 0.75).abs() < 1e-6);
    }

    #[test]
    fn ctc_loss_through_graph() {
        let mut g = Graph::new();
        let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
        let labels = g.placeholder("labels", Shape::matrix(1, 2));
        let loss = g.ctc_loss(logits, labels, 0);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s
            .run1(
                loss,
                &[
                    (logits, Tensor::zeros([4, 1, 3])),
                    (labels, Tensor::from_vec(vec![1.0, 2.0], [1, 2])),
                ],
            )
            .unwrap();
        assert!(out.scalar_value() > 0.0);
        assert!(out.scalar_value().is_finite());
    }

    #[test]
    fn shape_of_materializes_dims() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::new(vec![2, 5, 3]));
        let sh = g.shape_of(x);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s.run1(sh, &[(x, Tensor::zeros([2, 5, 3]))]).unwrap();
        assert_eq!(out.data(), &[2.0, 5.0, 3.0]);
    }
}
