//! Planning: everything about a fetch set that is decided once and
//! reused by every step — topological order, liveness and the dependency
//! counts the pool driver counts down.

use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

use super::pool::Scratch;
use crate::cost::{self, OpCost};
use crate::graph::{Graph, NodeId};

/// A cached execution plan: topological order, per-node liveness, and the
/// dependency structure the pool driver counts down at run time.
///
/// `indegree`, `consumers`, `use_count`, `serial` and `op_nanos` are
/// indexed by plan position; `last_use` and `pos_of` by graph node index.
#[derive(Debug)]
pub(super) struct Plan {
    pub(super) order: Vec<NodeId>,
    /// For each graph node index, the plan position of its last consumer
    /// (its own position if nothing consumes it; `usize::MAX` for fetched
    /// nodes, which must outlive the run).
    pub(super) last_use: Vec<usize>,
    /// Graph node index -> plan position (`usize::MAX` if unplanned).
    pub(super) pos_of: Vec<usize>,
    /// Unmet-dependency count per position: one per input occurrence plus
    /// one per serialization-chain edge.
    pub(super) indegree: Vec<u32>,
    /// Positions to notify when the op at a position completes (dataflow
    /// edges plus serialization-chain edges; duplicates are fine because
    /// increments and decrements are symmetric).
    pub(super) consumers: Vec<Vec<u32>>,
    /// Times each position's value is consumed: input occurrences plus
    /// fetch occurrences. Zero means the value dies at its own position.
    pub(super) use_count: Vec<u32>,
    /// Whether the op at a position must run on the coordinating thread,
    /// in plan order (see [`crate::OpKind::needs_serial`]).
    pub(super) serial: Vec<bool>,
    /// Static cost estimate per position, filled by the first traced
    /// step.
    costs: OnceLock<Vec<OpCost>>,
    /// Measured duration of each position's op in the latest traced step
    /// (f64 bits), written by `run_node` and read by the post-step
    /// `emit`. Untraced steps leave it alone.
    pub(super) op_nanos: Vec<AtomicU64>,
    /// The pool driver's run-time tables, reused by every step of this
    /// plan (empty when the plan runs on the serial walk).
    pub(super) scratch: Scratch,
}

impl Plan {
    /// Static cost estimates, by plan position.
    pub(super) fn costs(&self, graph: &Graph) -> &[OpCost] {
        self.costs.get_or_init(|| {
            self.order
                .iter()
                .map(|&id| {
                    let node = graph.node(id);
                    let input_shapes: Vec<_> = node.inputs.iter().map(|&i| graph.shape(i)).collect();
                    cost::estimate(node, &input_shapes)
                })
                .collect()
        })
    }

    /// Plans the subgraph `fetches` needs. `pooled` says whether steps of
    /// this plan run on the pool driver, which alone needs the scratch
    /// tables.
    pub(super) fn build(graph: &Graph, fetches: &[NodeId], pooled: bool) -> Plan {
        let mut needed = vec![false; graph.len()];
        let mut stack: Vec<NodeId> = fetches.to_vec();
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            stack.extend(graph.node(id).inputs.iter().copied());
        }
        // Insertion order is a valid topological order (append-only graph).
        let order: Vec<NodeId> = graph
            .iter()
            .filter(|(id, _)| needed[id.index()])
            .map(|(id, _)| id)
            .collect();
        let total = order.len();
        let mut pos_of = vec![usize::MAX; graph.len()];
        for (pos, &id) in order.iter().enumerate() {
            pos_of[id.index()] = pos;
        }
        let mut last_use = vec![0usize; graph.len()];
        let mut indegree = vec![0u32; total];
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut use_count = vec![0u32; total];
        let mut serial = vec![false; total];
        for (pos, &id) in order.iter().enumerate() {
            // A node with no consumers dies at its own position; later
            // consumers (always at higher positions) overwrite this.
            last_use[id.index()] = pos;
            serial[pos] = graph.node(id).kind.needs_serial();
            for &input in &graph.node(id).inputs {
                let ipos = pos_of[input.index()];
                indegree[pos] += 1;
                consumers[ipos].push(pos as u32);
                use_count[ipos] += 1;
                last_use[input.index()] = pos;
            }
        }
        // Chain stateful/RNG ops to each other in plan order so at most
        // one is ever ready: this pins the variable read/write and RNG
        // draw order to the serial walk's, making pooled runs bitwise
        // deterministic.
        let mut prev: Option<usize> = None;
        for (pos, &is_serial) in serial.iter().enumerate() {
            if is_serial {
                if let Some(p) = prev {
                    indegree[pos] += 1;
                    consumers[p].push(pos as u32);
                }
                prev = Some(pos);
            }
        }
        for &f in fetches {
            use_count[pos_of[f.index()]] += 1;
            last_use[f.index()] = usize::MAX;
        }
        Plan {
            costs: OnceLock::new(),
            op_nanos: (0..total).map(|_| AtomicU64::new(0)).collect(),
            scratch: if pooled { Scratch::new(graph.len(), total) } else { Scratch::new(0, 0) },
            order,
            last_use,
            pos_of,
            indegree,
            consumers,
            use_count,
            serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use crate::op::OpKind;
    use fathom_tensor::{Shape, Tensor};

    #[test]
    fn plan_executes_only_needed_nodes() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let used = g.neg(x);
        let unused = g.placeholder("unused", Shape::vector(9));
        let _dead = g.exp(unused);
        let mut s = Session::new(g, Device::cpu(1));
        s.enable_tracing();
        // Running `used` must not require feeding `unused`.
        s.run1(used, &[(x, Tensor::zeros([2]))]).unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.events.len(), 2);
    }

    /// A one-variable SGD step with a matmul, an RNG draw and a scalar
    /// loss: the session, `[loss, apply, x]` and the feed for `x`.
    fn sgd_session(device: Device) -> (Session, [NodeId; 3], Tensor) {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(16, 16));
        let v = g.variable("v", Tensor::filled([16, 16], 0.1));
        let noise = g.random_normal([16, 16]);
        let a = g.matmul(x, v);
        let b = g.add_op(a, noise);
        let loss = g.mean_all(b);
        let grads = crate::grad::gradients(&mut g, loss, &[v]);
        let apply = g.add(OpKind::Apply(crate::optim::Optimizer::sgd(0.05)), &[v, grads[0]]);
        (Session::with_seed(g, device, 7), [loss, apply, x], Tensor::filled([16, 16], 0.25))
    }

    #[test]
    fn serial_steps_after_the_second_allocate_nothing() {
        // The serial walk replays the same takes and gives every step, so
        // the arena learns each size's high-water mark in the first steps
        // and steps 3-8 miss exactly zero times.
        let (mut s, [loss, apply, x], feed) = sgd_session(Device::cpu(1));
        let mut warm = 0;
        for step in 1..=8 {
            s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
            if step == 2 {
                warm = s.runtime_counters().allocations;
            }
        }
        let counters = s.runtime_counters();
        assert!(counters.arena_bytes > 0, "the arena learned nothing");
        assert_eq!(counters.allocations, warm, "steps 3-8 allocated");
    }

    #[test]
    fn pooled_steps_reach_an_allocation_free_steady_state() {
        // The pool driver's interleaving varies from step to step, and
        // the arena learns each new concurrency record one buffer at a
        // time, so the warm-up length is not fixed: within the step
        // budget the session must reach four consecutive steps that
        // allocate nothing.
        let (mut s, [loss, apply, x], feed) = sgd_session(Device::cpu_inter_op(1, 2));
        let (mut quiet, mut last, mut spent) = (0u32, 0u64, 0usize);
        while spent < 40 && quiet < 4 {
            s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
            spent += 1;
            let now = s.runtime_counters().allocations;
            quiet = if now == last { quiet + 1 } else { 0 };
            last = now;
        }
        assert!(s.runtime_counters().arena_bytes > 0, "the arena learned nothing");
        assert!(quiet >= 4, "no allocation-free steady state within {spent} step(s)");
    }
}
