//! The node path both step drivers share — [`Step::run_node`],
//! [`extract_fetches`] and the post-step [`emit`] — and the serial
//! driver, the plan-order walk every bitwise gate compares the pool
//! driver (`super::pool`) against. The walk keeps its values in a safe
//! `Vec<Option<Tensor>>` and releases them by `last_use`: it must not
//! depend on the slot protocol it is the reference for.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use fathom_tensor::Tensor;

use super::dispatch::{dispatch_op, ExecCtx};
use super::plan::Plan;
use super::quant::{record_calibration, CalibrationRanges};
use super::session::SessionState;
use super::ExecError;
use crate::device::Device;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::graph::{Graph, NodeId};
use crate::trace::{push_trace_events, TraceEvent};

/// What one step reads and never writes; both drivers run every node
/// through it.
pub(super) struct Step<'a> {
    pub(super) graph: &'a Graph,
    pub(super) plan: &'a Plan,
    pub(super) feeds: &'a HashMap<NodeId, &'a Tensor>,
    pub(super) fetches: &'a [NodeId],
    /// Armed fault schedule, probed once per executed op.
    pub(super) fault: Option<&'a FaultPlan>,
    /// The session's precision knob and int8 plan.
    pub(super) ctx: ExecCtx<'a>,
    /// Whether the session is tracing, so each op is timed.
    pub(super) timed: bool,
}

/// What a driver hands back from a step that ran to completion.
pub(super) struct StepOutput {
    /// The fetched values, unpooled, in fetch order.
    pub(super) fetched: Vec<Tensor>,
    /// Peak bytes live in intermediates (the pool driver tracks it only
    /// on traced steps).
    pub(super) peak_live_bytes: usize,
    /// Ops the pool driver ran by chain-following.
    pub(super) inline_ops: u64,
}

impl Step<'_> {
    /// Executes the op at plan position `pos` at its planned width: the
    /// dispatch, the [`FaultSite::ExecOp`] probe and the op's timestamp.
    /// `resolve` maps an input id to its computed value; `state` is
    /// `Some` exactly for serial ops (see `dispatch_op`).
    pub(super) fn run_node<'v>(
        &self,
        pos: usize,
        resolve: impl Fn(NodeId) -> &'v Tensor,
        state: Option<&mut SessionState>,
    ) -> Result<Tensor, ExecError> {
        let id = self.plan.order[pos];
        let t0 = self.timed.then(Instant::now);
        let mut value = dispatch_op(
            self.graph,
            self.plan.pool_for(pos),
            id,
            self.feeds,
            resolve,
            state,
            self.ctx,
        )?;
        // A fired fault meets the same recovery machinery a real kernel
        // failure does: `Panic` aborts the run (the session rolls back),
        // `PoisonNan` models silent numerical corruption. Byte- and
        // serve-level actions are inert at exec sites.
        match self.fault.and_then(|f| f.check(FaultSite::ExecOp)) {
            Some(FaultAction::Panic) => panic!("injected fault: op panic at node {id}"),
            Some(FaultAction::PoisonNan) => value.data_mut().fill(f32::NAN),
            _ => {}
        }
        if let Some(t0) = t0 {
            let nanos = t0.elapsed().as_nanos() as f64;
            self.plan.op_nanos[pos].store(nanos.to_bits(), Ordering::Relaxed);
        }
        Ok(value)
    }
}

/// Records the trace events of a step that ran to completion, in plan
/// order whichever driver ran it: each op's measured duration (taken by
/// [`Step::run_node`]) goes through the device's time model and is
/// pushed with the op's static cost. A failed step records nothing.
pub(super) fn emit(
    events: &mut Vec<TraceEvent>,
    graph: &Graph,
    plan: &Plan,
    device: &Device,
    step: u64,
) {
    let costs = plan.costs(graph);
    for (pos, &id) in plan.order.iter().enumerate() {
        let node = graph.node(id);
        let op_cost = costs[pos];
        let measured = f64::from_bits(plan.op_nanos[pos].load(Ordering::Relaxed));
        let nanos = match device {
            Device::Cpu { .. } => measured,
            Device::SimCpu { threads, model } => {
                model.model_nanos(measured, op_cost, *threads, node.kind.uses_intra_op_pool())
            }
            Device::SimGpu(model) => model.model_nanos(&node.kind, op_cost),
        };
        push_trace_events(events, id, node, step, nanos, op_cost);
    }
}

/// Takes the fetched values out of a driver's value table (`take`) and
/// returns *unpooled* copies of them, recycling the originals. Callers
/// hold fetches arbitrarily long (and may drop them on threads with no
/// arena installed), so handing out a pooled buffer would drain the
/// session's static arena by one buffer per fetch per step; the copy
/// keeps steady-state steps allocation-free for planned tensors.
pub(super) fn extract_fetches(
    fetches: &[NodeId],
    take: impl FnMut(NodeId) -> Option<Tensor>,
) -> Vec<Tensor> {
    let originals: Vec<Option<Tensor>> = fetches.iter().copied().map(take).collect();
    fetches
        .iter()
        .map(|f| {
            // A node fetched twice was taken by its first occurrence.
            let first = fetches.iter().position(|g| g == f).expect("f is in fetches");
            let v = originals[first].as_ref().expect("fetched node kept alive");
            Tensor::from_vec(v.data().to_vec(), v.shape().clone())
        })
        .collect()
    // Dropping `originals` under the installed arena recycles them.
}

/// Executes a plan one op at a time in plan order. While `calib` is
/// given (a calibration run) each eligible GEMM's activation ranges are
/// recorded into it first.
pub(super) fn run_serial(
    step: &Step<'_>,
    state: &mut SessionState,
    mut calib: Option<&mut CalibrationRanges>,
) -> Result<StepOutput, ExecError> {
    let (graph, plan) = (step.graph, step.plan);
    let mut values: Vec<Option<Tensor>> = vec![None; graph.len()];
    // Liveness-based eager release: drop intermediates after their
    // last consumer runs, tracking the peak footprint as we go. The
    // drops return buffers to the installed arena — no explicit
    // recycler call on the hot path.
    let mut live_bytes: usize = 0;
    let mut peak_bytes: usize = 0;
    for (pos, &id) in plan.order.iter().enumerate() {
        if let Some(ranges) = calib.as_deref_mut() {
            record_calibration(ranges, graph, id, &values);
        }
        let resolve = |n: NodeId| values[n.index()].as_ref().expect("input executed before use");
        let value = step.run_node(pos, resolve, Some(&mut *state))?;
        live_bytes += value.len() * 4;
        peak_bytes = peak_bytes.max(live_bytes);
        values[id.index()] = Some(value);
        if plan.last_use[id.index()] == pos {
            // No consumer (pure side-effect node): free immediately.
            if let Some(dead) = values[id.index()].take() {
                live_bytes -= dead.len() * 4;
                drop(dead);
            }
        }
        for &input in &graph.node(id).inputs {
            if plan.last_use[input.index()] == pos {
                if let Some(dead) = values[input.index()].take() {
                    live_bytes -= dead.len() * 4;
                    drop(dead);
                }
            }
        }
    }
    Ok(StepOutput {
        fetched: extract_fetches(step.fetches, |f| values[f.index()].take()),
        peak_live_bytes: peak_bytes,
        inline_ops: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Session;
    use fathom_tensor::Shape;
    use std::sync::Arc;

    #[test]
    fn tracing_captures_events() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 4));
        let y = g.matmul(x, x);
        let z = g.relu(y);
        let mut s = Session::new(g, Device::cpu(1));
        s.enable_tracing();
        s.run(&[z], &[(x, Tensor::ones([4, 4]))]).unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.steps, 1);
        let ops: Vec<&str> = trace.events.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["Placeholder", "MatMul", "Relu"]);
        assert!(trace.events[1].cost.flops > 0.0);
    }

    #[test]
    fn sim_gpu_produces_identical_values_with_modeled_times() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(8, 8));
        let y = g.matmul(x, x);
        let feeds = Tensor::filled([8, 8], 0.5);
        let mut cpu = Session::new(g.clone(), Device::cpu(1));
        let mut gpu = Session::new(g, Device::sim_gpu());
        gpu.enable_tracing();
        let a = cpu.run1(y, &[(x, feeds.clone())]).unwrap();
        let b = gpu.run1(y, &[(x, feeds)]).unwrap();
        assert_eq!(a, b);
        let trace = gpu.take_trace();
        // Modeled durations must include the launch overhead.
        assert!(trace.events.iter().all(|e| e.nanos >= 1_500.0));
    }

    #[test]
    fn eager_release_keeps_peak_memory_below_sum_of_intermediates() {
        // A long chain of equally-sized intermediates: with eager release
        // the peak is a small multiple of one tensor, not chain_len of them.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(10_000));
        let mut node = x;
        for _ in 0..50 {
            node = g.tanh(node);
        }
        let mut s = Session::new(g, Device::cpu(1));
        s.enable_tracing();
        s.run1(node, &[(x, Tensor::zeros([10_000]))]).unwrap();
        let trace = s.take_trace();
        let one_tensor = 10_000 * 4;
        assert!(trace.peak_live_bytes > 0);
        assert!(
            (trace.peak_live_bytes as usize) <= 4 * one_tensor,
            "peak {} should be a few tensors, not the whole chain ({})",
            trace.peak_live_bytes,
            51 * one_tensor
        );
    }

    #[test]
    fn fetched_and_reused_values_survive_release() {
        // x is consumed early but also fetched; y reuses an early value.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let a = g.neg(x);
        let b = g.exp(a);
        let c = g.add_op(b, a); // `a` is consumed again after `b`
        let out = {
            let mut s = Session::new(g, Device::cpu(1));
            s.run(&[c, a, x], &[(x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0]))]).unwrap()
        };
        assert_eq!(out[1].data(), &[-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(out[2].data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!((out[0].data()[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn duplicate_fetches_clone_only_the_extras() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s.run(&[y, y], &[(x, Tensor::from(vec![1.0, 2.0, 3.0]))]).unwrap();
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0].data(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn recycler_reuses_buffers_across_runs() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4096));
        let mut node = x;
        for _ in 0..4 {
            node = g.tanh(node);
        }
        let mut s = Session::new(g, Device::cpu(1));
        let feed = Tensor::filled([4096], 0.5);
        s.run1(node, &[(x, feed.clone())]).unwrap();
        let first = s.recycle_stats();
        assert!(first.returned > 0, "freed intermediates must reach the pool");
        s.run1(node, &[(x, feed)]).unwrap();
        let second = s.recycle_stats();
        assert!(second.hits > first.hits, "second run must draw from the pool");
    }

    #[test]
    fn injected_nan_poisoning_is_visible_in_the_output() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu(1));
        // Plan order: placeholder (hit 0), neg (hit 1).
        s.set_fault_plan(Some(Arc::new(
            FaultPlan::new(0).with(FaultSite::ExecOp, 1, FaultAction::PoisonNan),
        )));
        let out = s.run1(y, &[(x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0]))]).unwrap();
        assert!(out.data().iter().all(|v| v.is_nan()), "poisoned op must emit NaNs");
        s.set_fault_plan(None);
        let clean = s.run1(y, &[(x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0]))]).unwrap();
        assert_eq!(clean.data(), &[-1.0, -2.0, -3.0, -4.0]);
    }
}
