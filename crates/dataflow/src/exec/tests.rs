//! Driver-parity tests: what must hold on the serial walk and on the
//! pool driver alike — rollback of failed steps, isolation of shared
//! state from later steps, what a failed step leaves in the trace,
//! event-for-event equal traces, bitwise-equal training at every
//! thread count, and the bf16 knob switching the GEMM engine on both.

#![cfg(test)]

use std::sync::Arc;

use fathom_tensor::kernels::gemm as kgemm;
use fathom_tensor::{ExecPool, Precision, Rng, Shape, Tensor};

use super::{ExecError, Guardrail, Session};
use crate::checkpoint::{ResumeImage, TrainCursor};
use crate::device::Device;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;
use crate::optim::Optimizer;

/// A graph whose plan runs an `opt` update *before* a CTC loss that can
/// be made to fail via bad labels: the classic "state committed, then
/// the step died" shape. Returns (graph, label placeholder, logits
/// placeholder, variable, apply node, loss node).
fn apply_then_failable_loss(opt: Optimizer) -> (Graph, NodeId, NodeId, NodeId, NodeId, NodeId) {
    let mut g = Graph::new();
    let v = g.variable("v", Tensor::from(vec![1.0, 2.0]));
    let grad = g.random_normal([2]);
    let apply = g.add(OpKind::Apply(opt), &[v, grad]);
    let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
    let labels = g.placeholder("labels", Shape::matrix(1, 2));
    let loss = g.ctc_loss(logits, labels, 0);
    (g, labels, logits, v, apply, loss)
}

/// The four optimizers, one of each class-F table row.
fn every_optimizer() -> [Optimizer; 4] {
    [Optimizer::sgd(0.1), Optimizer::momentum(0.1), Optimizer::rms_prop(0.1), Optimizer::adam(0.1)]
}

/// A session's variable `v` and its every optimizer slot, by value.
fn state_of(s: &Session, v: NodeId) -> (Tensor, Vec<(NodeId, &'static str, Tensor)>) {
    let slots = s.optimizer_slots().into_iter().map(|(id, n, t)| (id, n, t.clone())).collect();
    (s.variable_value(v).unwrap().clone(), slots)
}

fn rollback_after_mid_run_error(device: Device, opt: Optimizer) {
    let (g, labels, logits, v, apply, loss) = apply_then_failable_loss(opt);
    let mut s = Session::with_seed(g, device, 42);
    let feeds = |fed: Vec<f32>| {
        [(logits, Tensor::zeros([4, 1, 3])), (labels, Tensor::from_vec(fed, [1, 2]))]
    };
    // Label 0 collides with the blank symbol: the run fails after the
    // apply op already committed its update in plan order. The first
    // failure is on step 0, before any slot exists (rollback must remove
    // the slots the update created); the second is on step 1, after a
    // good step (rollback must restore them).
    for step in 0..2 {
        let before = state_of(&s, v);
        assert_eq!(before.1.len(), step * opt.slots().len(), "{opt:?} slots before step {step}");
        let err = s.run(&[apply, loss], &feeds(vec![0.0, 1.0])).unwrap_err();
        assert!(matches!(err, ExecError::BadLabels(_)));
        assert_eq!(
            state_of(&s, v),
            before,
            "{opt:?}: a failed step {step} must roll the variable and slots back"
        );
        // The RNG must be rewound too: the post-failure run draws the
        // same gradient a never-failed session would.
        s.run(&[apply, loss], &feeds(vec![1.0, 2.0])).expect("session recovered");
    }
    // A never-failed twin: the same builder, so the same node ids.
    let mut fresh = Session::with_seed(apply_then_failable_loss(opt).0, Device::cpu(1), 42);
    for _ in 0..2 {
        fresh.run(&[apply, loss], &feeds(vec![1.0, 2.0])).expect("runs");
    }
    assert_eq!(
        state_of(&s, v),
        state_of(&fresh, v),
        "{opt:?}: rolled-back failures must leave no trace on later steps"
    );
}

#[test]
fn serial_executor_rolls_back_failed_runs() {
    for opt in every_optimizer() {
        rollback_after_mid_run_error(Device::cpu(1), opt);
    }
}

#[test]
fn parallel_executor_rolls_back_failed_runs() {
    for opt in every_optimizer() {
        rollback_after_mid_run_error(Device::cpu_inter_op(1, 4), opt);
    }
}

#[test]
fn injected_op_panic_rolls_back_and_session_stays_usable() {
    let mut g = Graph::new();
    let v = g.variable("v", Tensor::from(vec![1.0, 1.0]));
    let grad = g.constant(Tensor::from(vec![0.5, -0.5]));
    let apply = g.add(OpKind::Apply(Optimizer::sgd(0.1)), &[v, grad]);
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


/// A resume image shares the session's variable and slot buffers rather
/// than copying them, so nothing the session does next may write them:
/// not a committed step, not a step the guardrail trips and not one an
/// injected op panic aborts after its update ran.
fn captured_state_stays_put(device: Device, opt: Optimizer) {
    let mut g = Graph::new();
    let v = g.variable("v", Tensor::from(vec![1.0, 2.0]));
    let grad = g.placeholder("grad", Shape::vector(2));
    let apply = g.add(OpKind::Apply(opt), &[v, grad]);
    let mut s = Session::with_seed(g, device, 42);
    s.set_guardrail(Some(Guardrail::finite()));
    let feed = |x: f32| [(grad, Tensor::from(vec![x, -x]))];
    let written = |image: &ResumeImage| {
        let mut bytes = Vec::new();
        image.write(&mut bytes).expect("writes to memory");
        bytes
    };
    // Captured before the first step (no slots yet) and before a later
    // one (every slot live).
    for step in 0..2 {
        let image = ResumeImage::capture(&s, TrainCursor::default(), Vec::new());
        let before = written(&image);
        s.run(&[apply], &feed(0.5)).expect("a committed step");
        assert_eq!(written(&image), before, "{opt:?} step {step}: a committed step wrote the capture");
        let err = s.run(&[apply], &feed(f32::NAN)).unwrap_err();
        assert!(matches!(err, ExecError::GuardTripped(_)), "{opt:?}: got {err:?}");
        assert_eq!(written(&image), before, "{opt:?} step {step}: a tripped step wrote the capture");
        // Plan order: variable, placeholder, apply; the third probe fires
        // after the update ran.
        s.set_fault_plan(Some(Arc::new(
            FaultPlan::new(0).with(FaultSite::ExecOp, 2, FaultAction::Panic),
        )));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run(&[apply], &feed(0.25));
        }));
        s.set_fault_plan(None);
        assert!(panicked.is_err(), "injected panic must surface");
        assert_eq!(written(&image), before, "{opt:?} step {step}: an aborted step wrote the capture");
    }
}

#[test]
fn captured_state_stays_put_on_the_serial_walk() {
    for opt in every_optimizer() {
        captured_state_stays_put(Device::cpu(1), opt);
    }
}

#[test]
fn captured_state_stays_put_on_the_pool_driver() {
    for opt in every_optimizer() {
        captured_state_stays_put(Device::cpu_inter_op(1, 4), opt);
    }
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
        let (g, labels, logits, _v, apply, loss) = apply_then_failable_loss(Optimizer::sgd(0.1));
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

/// Thread counts change only where kernel chunks run, never what they
/// compute: the pool driver at two and eight workers, the serial walk at
/// two threads and at one train to the same bits.
#[test]
fn training_agrees_bitwise_across_drivers_and_thread_counts() {
    let train = |device: Device| {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(16, 16));
        let v = g.variable("v", Tensor::filled([16, 16], 0.1));
        let a = g.matmul(x, v);
        let b = g.tanh(x);
        let c = g.add_op(a, b);
        let loss = g.mean_all(c);
        let grads = crate::grad::gradients(&mut g, loss, &[v]);
        let apply = g.add(OpKind::Apply(Optimizer::sgd(0.05)), &[v, grads[0]]);
        let mut s = Session::with_seed(g, device, 7);
        let feed = Tensor::filled([16, 16], 0.25);
        let mut last = Tensor::scalar(0.0);
        for _ in 0..3 {
            let out = s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
            last = out.into_iter().next().unwrap();
        }
        (last, s.variable_value(v).unwrap().clone())
    };
    let (loss_p, var_p) = train(Device::cpu_inter_op(2, 2));
    for device in [Device::cpu_inter_op(8, 8), Device::cpu(2), Device::cpu(1)] {
        let (loss, var) = train(device.clone());
        assert_eq!(loss, loss_p, "loss bits differ on {device:?}");
        assert_eq!(var, var_p, "variable bits differ on {device:?}");
    }
}

/// Graph with one bf16-eligible GEMM: x:[4,128] @ w:[128,64]
/// (k = 128 ≥ 64, n = 64 ≥ 16, k·n = 8192 — [`kgemm::select`]
/// routes it to the bf16 panels).
fn gemm_session(device: Device) -> (Session, NodeId, Tensor, Tensor) {
    let mut rng = Rng::seeded(0x18);
    let xv = Tensor::randn([4, 128], 0.0, 1.0, &mut rng);
    let wv = Tensor::randn([128, 64], 0.0, 0.5, &mut rng);
    let mut g = Graph::new();
    let x = g.placeholder("x", Shape::matrix(4, 128));
    let w = g.variable("w", wv.clone());
    let y = g.matmul(x, w);
    (Session::new(g, device), y, xv, wv)
}

#[test]
fn bf16_precision_switches_the_gemm_kernel() {
    let (mut s, y, xv, wv) = gemm_session(Device::cpu(2));
    let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
    let f32_out = s.run1(y, &[(x, xv.clone())]).unwrap();

    assert_eq!(s.precision(), Precision::F32);
    s.set_precision(Precision::Bf16);
    assert_eq!(s.precision(), Precision::Bf16);
    let bf16_out = s.run1(y, &[(x, xv.clone())]).unwrap();

    // The bf16 session output is bitwise the packed driver's over
    // bf16 panels.
    let mut expect = vec![0.0; 4 * 64];
    let pool = ExecPool::new(2);
    kgemm::gemm_into(
        &mut expect, 4, 64, 128, xv.data(), false, wv.data(), false, Precision::Bf16, None, &pool,
    );
    assert_eq!(bf16_out.data(), &expect[..], "session must use the bf16 engine");
    // And it genuinely lost mantissa bits relative to f32.
    assert!(bf16_out.max_abs_diff(&f32_out) > 0.0, "bf16 path was a no-op");

    // Switching back restores the f32 result bitwise.
    s.set_precision(Precision::F32);
    assert_eq!(s.run1(y, &[(x, xv)]).unwrap().data(), f32_out.data());
}

#[test]
fn bf16_session_is_bitwise_identical_serial_vs_parallel() {
    let (mut serial, y, xv, _) = gemm_session(Device::cpu(1));
    let (mut par, yp, _, _) = gemm_session(Device::cpu_inter_op(2, 4));
    let x = serial.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
    let xq = par.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
    serial.set_precision(Precision::Bf16);
    par.set_precision(Precision::Bf16);
    let a = serial.run1(y, &[(x, xv.clone())]).unwrap();
    let b = par.run1(yp, &[(xq, xv)]).unwrap();
    assert_eq!(a.data(), b.data(), "bf16 must stay executor-independent");
}
