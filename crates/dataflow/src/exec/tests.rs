//! Driver-parity tests: what must hold on the serial walk and on the
//! pool driver alike — rollback of failed steps, what a failed step
//! leaves in the trace, event-for-event equal traces, and bitwise-equal
//! training at molded and full widths.

#![cfg(test)]

use std::sync::Arc;

use fathom_tensor::{Shape, Tensor};

use super::{ExecError, Session};
use crate::device::Device;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// A graph whose plan runs an SGD update *before* a CTC loss that can
/// be made to fail via bad labels: the classic "state committed, then
/// the step died" shape. Returns (graph, label placeholder, logits
/// placeholder, variable, apply node, loss node).
fn apply_then_failable_loss() -> (Graph, NodeId, NodeId, NodeId, NodeId, NodeId) {
    let mut g = Graph::new();
    let v = g.variable("v", Tensor::from(vec![1.0, 2.0]));
    let grad = g.random_normal([2]);
    let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
    let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
    let labels = g.placeholder("labels", Shape::matrix(1, 2));
    let loss = g.ctc_loss(logits, labels, 0);
    (g, labels, logits, v, apply, loss)
}

fn rollback_after_mid_run_error(device: Device) {
    let (g, labels, logits, v, apply, loss) = apply_then_failable_loss();
    let mut s = Session::with_seed(g, device, 42);
    let before = s.variable_value(v).unwrap().clone();
    // Label 0 collides with the blank symbol: the run fails after the
    // apply op already committed its variable update in plan order.
    let err = s
        .run(
            &[apply, loss],
            &[
                (logits, Tensor::zeros([4, 1, 3])),
                (labels, Tensor::from_vec(vec![0.0, 1.0], [1, 2])),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, ExecError::BadLabels(_)));
    assert_eq!(
        s.variable_value(v).unwrap(),
        &before,
        "failed run must roll the committed SGD update back"
    );
    // The RNG must be rewound too: the post-failure run draws the
    // same gradient a never-failed session would.
    let good = [
        (logits, Tensor::zeros([4, 1, 3])),
        (labels, Tensor::from_vec(vec![1.0, 2.0], [1, 2])),
    ];
    s.run(&[apply, loss], &good).expect("session recovered");
    let recovered = s.variable_value(v).unwrap().clone();
    let (g2, labels2, logits2, v2, apply2, loss2) = apply_then_failable_loss();
    let mut fresh = Session::with_seed(g2, Device::cpu(1), 42);
    fresh
        .run(
            &[apply2, loss2],
            &[
                (logits2, Tensor::zeros([4, 1, 3])),
                (labels2, Tensor::from_vec(vec![1.0, 2.0], [1, 2])),
            ],
        )
        .expect("runs");
    assert_eq!(
        recovered,
        fresh.variable_value(v2).unwrap().clone(),
        "a rolled-back failure must leave no trace on later steps"
    );
}

#[test]
fn serial_executor_rolls_back_failed_runs() {
    rollback_after_mid_run_error(Device::cpu(1));
}

#[test]
fn parallel_executor_rolls_back_failed_runs() {
    rollback_after_mid_run_error(Device::cpu_inter_op(1, 4));
}

#[test]
fn injected_op_panic_rolls_back_and_session_stays_usable() {
    let mut g = Graph::new();
    let v = g.variable("v", Tensor::from(vec![1.0, 1.0]));
    let grad = g.constant(Tensor::from(vec![0.5, -0.5]));
    let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
    let mut s = Session::new(g, Device::cpu(1));
    // Fire after the apply committed (plan: variable, constant, apply).
    s.set_fault_plan(Some(Arc::new(
        FaultPlan::new(0).with(FaultSite::ExecOp, 2, FaultAction::Panic),
    )));
    let before = s.variable_value(v).unwrap().clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.run(&[apply], &[]);
    }));
    assert!(result.is_err(), "injected panic must surface");
    assert_eq!(s.variable_value(v).unwrap(), &before, "panic must roll state back");
    s.set_fault_plan(None);
    s.run(&[apply], &[]).expect("session recovered after injected panic");
    assert!((s.variable_value(v).unwrap().data()[0] - 0.95).abs() < 1e-6);
}


/// Labels the CTC kernel would assert on (out of range) or silently
/// misread (non-finite) must come back as a typed error from either
/// driver, and leave the session usable.
#[test]
fn bad_ctc_labels_are_typed_errors_on_both_drivers() {
    for device in [Device::cpu(1), Device::cpu_inter_op(1, 4)] {
        let mut g = Graph::new();
        let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
        let labels = g.placeholder("labels", Shape::matrix(1, 2));
        let loss = g.ctc_loss(logits, labels, 0);
        let mut s = Session::new(g, device.clone());
        let mut run = |fed: [f32; 2]| {
            s.run1(
                loss,
                &[
                    (logits, Tensor::zeros([4, 1, 3])),
                    (labels, Tensor::from_vec(fed.to_vec(), [1, 2])),
                ],
            )
        };
        for bad in [[3.0, 1.0], [1.0, 1e9], [f32::NAN, 1.0], [f32::INFINITY, 1.0]] {
            let err = run(bad).unwrap_err();
            assert!(matches!(err, ExecError::BadLabels(_)), "{bad:?} on {device:?}: {err:?}");
        }
        // `-1` still pads, and the session still steps.
        assert!(run([2.0, -1.0]).unwrap().scalar_value().is_finite());
        assert!(run([1.0, 2.0]).unwrap().scalar_value().is_finite());
    }
}

/// `(node, op, class, step)` of every recorded event.
fn event_keys(trace: &crate::trace::RunTrace) -> Vec<(NodeId, &'static str, crate::op::OpClass, u64)> {
    trace.events.iter().map(|e| (e.node, e.op, e.class, e.step)).collect()
}

#[test]
fn failed_steps_leave_no_op_events_on_either_driver() {
    let mut traces = Vec::new();
    for device in [Device::cpu(1), Device::cpu_inter_op(1, 4)] {
        let (g, labels, logits, _v, apply, loss) = apply_then_failable_loss();
        let mut s = Session::with_seed(g, device, 42);
        s.enable_tracing();
        let feeds = |fed: Vec<f32>| {
            [(logits, Tensor::zeros([4, 1, 3])), (labels, Tensor::from_vec(fed, [1, 2]))]
        };
        // An injected op panic mid-plan...
        s.set_fault_plan(Some(Arc::new(
            FaultPlan::new(0).with(FaultSite::ExecOp, 2, FaultAction::Panic),
        )));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run(&[apply, loss], &feeds(vec![1.0, 2.0]));
        }));
        assert!(panicked.is_err(), "injected panic must surface");
        // ...and a typed failure at the plan's last op...
        let err = s.run(&[apply, loss], &feeds(vec![0.0, 1.0])).unwrap_err();
        assert!(matches!(err, ExecError::BadLabels(_)));
        // ...record nothing: the trace holds the one step that succeeded.
        s.run(&[apply, loss], &feeds(vec![1.0, 2.0])).expect("session recovered");
        let trace = s.take_trace();
        assert_eq!(trace.steps, 1);
        assert_eq!(trace.events.len(), 6, "one event per planned op of the good step");
        assert!(trace.events.iter().all(|e| e.step == 0));
        traces.push(event_keys(&trace));
    }
    assert_eq!(traces[0], traces[1], "both drivers record the same events");
}

#[test]
fn both_drivers_record_the_same_trace_of_fused_nodes() {
    let mut traces = Vec::new();
    for device in [Device::cpu(1), Device::cpu_inter_op(1, 4)] {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(8, 8));
        let w = g.variable("w", Tensor::filled([8, 8], 0.1));
        let y = g.matmul(x, w);
        let r = g.relu(y);
        let t = g.tanh(x);
        let sq = g.square(t);
        let n = g.neg(sq);
        let c = g.add_op(r, n);
        let loss = g.mean_all(c);
        let mut s = Session::new(g, device);
        s.enable_fusion(&[loss]);
        let kinds: Vec<&OpKind> = s.graph().iter().map(|(_, node)| &node.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, OpKind::Fused(_))), "no Fused node");
        assert!(kinds.iter().any(|k| matches!(k, OpKind::GemmFused { .. })), "no GemmFused node");
        s.enable_tracing();
        for _ in 0..2 {
            s.run1(loss, &[(x, Tensor::filled([8, 8], 0.25))]).unwrap();
        }
        let trace = s.take_trace();
        let sums: Vec<(f64, f64)> = (0..2)
            .map(|step| {
                let of_step = trace.events.iter().filter(|e| e.step == step);
                of_step.fold((0.0, 0.0), |(f, b), e| (f + e.cost.flops, b + e.cost.bytes))
            })
            .collect();
        traces.push((event_keys(&trace), sums));
    }
    assert!(traces[0].0.iter().any(|k| k.1 == "Tanh") && traces[0].0.iter().any(|k| k.1 == "Relu"));
    assert_eq!(traces[0], traces[1]);
}

/// Molded widths change only where kernel chunks run, never what they
/// compute: the pool driver at molded widths, the serial walk at full
/// width and one thread train to the same bits.
#[test]
fn molded_full_width_and_single_thread_training_agree_bitwise() {
    let train = |device: Device| {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(16, 16));
        let v = g.variable("v", Tensor::filled([16, 16], 0.1));
        let a = g.matmul(x, v);
        let b = g.tanh(x);
        let c = g.add_op(a, b);
        let loss = g.mean_all(c);
        let grads = crate::grad::gradients(&mut g, loss, &[v]);
        let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.05 }, &[v, grads[0]]);
        let mut s = Session::with_seed(g, device, 7);
        let feed = Tensor::filled([16, 16], 0.25);
        let mut last = Tensor::scalar(0.0);
        for _ in 0..3 {
            let out = s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
            last = out.into_iter().next().unwrap();
        }
        let var = s.variable_value(v).unwrap().clone();
        (last, var, s.runtime_counters())
    };
    let (loss_m, var_m, counters_m) = train(Device::cpu_inter_op(2, 2));
    assert!(counters_m.coscheduled_ops > 0, "tiny co-runnable ops must be molded narrow");
    for device in [Device::cpu(2), Device::cpu(1)] {
        let (loss, var, counters) = train(device.clone());
        assert_eq!(loss, loss_m, "loss bits differ on {device:?}");
        assert_eq!(var, var_m, "variable bits differ on {device:?}");
        assert_eq!(counters.coscheduled_ops, 0, "the serial walk reports no width decisions");
    }
}
