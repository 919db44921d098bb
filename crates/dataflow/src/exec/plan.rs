//! Planning: everything about a fetch set that is decided once and
//! reused by every step — topological order, liveness, the dependency
//! counts the pool driver counts down, per-op intra-op widths, static
//! cost estimates and the arena census.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

use fathom_tensor::{BufferPool, ExecPool};

use super::pool::Scratch;
use crate::cost::{self, OpCost};
use crate::graph::{Graph, NodeId};
use crate::sched;

/// A cached execution plan: topological order, per-node liveness, and the
/// dependency structure the pool driver counts down at run time.
///
/// `indegree`, `consumers`, `use_count`, `serial`, `widths` and
/// `op_nanos` are indexed by plan position; `last_use` and `pos_of` by
/// graph node index.
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
    /// Intra-op width per position, decided at plan time by the cost
    /// model ([`sched::chosen_width`]). Both step drivers dispatch each
    /// op's kernels at exactly this width, so serial and pooled runs
    /// stay bitwise interchangeable.
    widths: Vec<usize>,
    /// The session pool viewed at each width `1..=full` (index
    /// `width - 1`), built once so dispatching an op never touches the
    /// runtime's shared reference count.
    width_pools: Vec<ExecPool>,
    /// Ops whose width equals the device's full intra-op width.
    pub(super) wide_ops: u64,
    /// Ops molded narrower so independent peers co-schedule.
    pub(super) cosched_ops: u64,
    /// Static cost estimate per position, filled on first use: at plan
    /// time when widths are molded, else by the first traced step.
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
    /// The pool view the op at `pos` dispatches its kernels through.
    pub(super) fn pool_for(&self, pos: usize) -> &ExecPool {
        &self.width_pools[self.widths[pos] - 1]
    }

    /// Static cost estimates, by plan position.
    pub(super) fn costs(&self, graph: &Graph) -> &[OpCost] {
        self.costs.get_or_init(|| estimate_costs(graph, &self.order))
    }

    /// Plans the subgraph `fetches` needs. `pool` is the session's
    /// intra-op pool; `pooled` says whether steps of this plan run on the
    /// pool driver, which is what turns width molding on and makes the
    /// arena census schedule-independent. The census is applied to
    /// `recycler` before the plan is returned.
    pub(super) fn build(
        graph: &Graph,
        fetches: &[NodeId],
        pool: &ExecPool,
        pooled: bool,
        recycler: &BufferPool,
    ) -> Plan {
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
        // Per-op widths: on the pool driver the cost model molds each op
        // to its work and to the peers of comparable work at its depth;
        // everywhere else every op gets the full intra-op width. Both
        // drivers dispatch at exactly these widths, so serial and pooled
        // runs of the same plan stay bitwise interchangeable.
        let full = pool.threads();
        let costs = OnceLock::new();
        let widths = if pooled && full > 1 {
            molded_widths(&consumers, costs.get_or_init(|| estimate_costs(graph, &order)), full)
        } else {
            vec![full; total]
        };
        let wide_ops = widths.iter().filter(|&&w| w == full).count() as u64;
        recycler.apply_plan(&arena_census(graph, &order, &last_use, pooled));
        Plan {
            widths,
            width_pools: (1..=full).map(|w| pool.with_width(w)).collect(),
            wide_ops,
            cosched_ops: total as u64 - wide_ops,
            costs,
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

/// [`cost::estimate`] for every node of `order`.
fn estimate_costs(graph: &Graph, order: &[NodeId]) -> Vec<OpCost> {
    order
        .iter()
        .map(|&id| {
            let node = graph.node(id);
            let input_shapes: Vec<_> = node.inputs.iter().map(|&i| graph.shape(i)).collect();
            cost::estimate(node, &input_shapes)
        })
        .collect()
}

/// The width [`sched::chosen_width`] gives each position on a machine of
/// `full` threads.
fn molded_widths(consumers: &[Vec<u32>], costs: &[OpCost], full: usize) -> Vec<usize> {
    let total = consumers.len();
    // Longest-path depth per position over dataflow plus
    // serialization-chain edges (`consumers` holds both): positions
    // sharing a depth cannot depend on one another, so they are the
    // co-runnable set the width rule divides the machine between.
    let mut level = vec![0u32; total];
    for pos in 0..total {
        for &c in &consumers[pos] {
            let c = c as usize;
            level[c] = level[c].max(level[pos] + 1);
        }
    }
    let work: Vec<usize> = costs.iter().map(OpCost::work_elements).collect();
    let mut by_level: Vec<Vec<usize>> = Vec::new();
    for (pos, &l) in level.iter().enumerate() {
        let l = l as usize;
        if by_level.len() <= l {
            by_level.resize_with(l + 1, Vec::new);
        }
        by_level[l].push(work[pos]);
    }
    for works in &mut by_level {
        works.sort_unstable();
    }
    (0..total)
        .map(|pos| {
            let peers = sched::comparable_peers(&by_level[level[pos] as usize], work[pos]);
            sched::chosen_width(work[pos], peers, full, sched::SPLIT_GRAIN)
        })
        .collect()
}

/// Static arena census: per exact buffer size, how many tensors must be
/// provisioned so one step of the plan allocates nothing. On the serial
/// walk the census mirrors plan-order eager release (a value dies when
/// its last consumer runs; fetched values live to the end), giving the
/// exact plan-order peak. The pool driver runs ops in whatever order its
/// workers reach them, so *any* two same-sized tensors of the step may
/// overlap in time — the only schedule-independent bound is the total
/// number created per step, and that is what the census counts there
/// (skipping the release walk). Kernel-internal temporaries the census
/// cannot see ride on the plan slack, the miss-driven cap growth, and the
/// dynamic fallback.
fn arena_census(
    graph: &Graph,
    order: &[NodeId],
    last_use: &[usize],
    pooled: bool,
) -> Vec<(usize, usize)> {
    let mut live: HashMap<usize, usize> = HashMap::new();
    let mut peak: HashMap<usize, usize> = HashMap::new();
    let mut freed = vec![false; graph.len()];
    for (pos, &id) in order.iter().enumerate() {
        let len = graph.shape(id).num_elements();
        if len > 0 {
            let l = live.entry(len).or_insert(0);
            *l += 1;
            let p = peak.entry(len).or_insert(0);
            *p = (*p).max(*l);
        }
        if pooled {
            continue;
        }
        if last_use[id.index()] == pos && len > 0 && !freed[id.index()] {
            freed[id.index()] = true;
            *live.get_mut(&len).expect("made live above") -= 1;
        }
        for &input in &graph.node(id).inputs {
            if last_use[input.index()] == pos && !freed[input.index()] {
                freed[input.index()] = true;
                let ilen = graph.shape(input).num_elements();
                if ilen > 0 {
                    *live.get_mut(&ilen).expect("produced before use") -= 1;
                }
            }
        }
    }
    let mut census: Vec<(usize, usize)> = peak.into_iter().collect();
    census.sort_unstable();
    census
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

    #[test]
    fn steady_state_steps_allocate_nothing_for_planned_tensors() {
        // The plan's census prewarms the arena and planned misses grow
        // the retention caps, so the per-step miss delta converges to
        // zero on both executors. Warm-up length is interleaving-
        // dependent (kernel temporaries can set late concurrency
        // records), so the assertion is existential: within the step
        // budget the session must reach four consecutive steps that
        // allocate nothing for planned tensors.
        for device in [Device::cpu(1), Device::cpu_inter_op(1, 2)] {
            let mut g = Graph::new();
            let x = g.placeholder("x", Shape::matrix(16, 16));
            let v = g.variable("v", Tensor::filled([16, 16], 0.1));
            let noise = g.random_normal([16, 16]);
            let a = g.matmul(x, v);
            let b = g.add_op(a, noise);
            let loss = g.mean_all(b);
            let grads = crate::grad::gradients(&mut g, loss, &[v]);
            let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.05 }, &[v, grads[0]]);
            let mut s = Session::with_seed(g, device.clone(), 7);
            let feed = Tensor::filled([16, 16], 0.25);
            let (mut quiet, mut last, mut spent) = (0u32, 0u64, 0usize);
            while spent < 40 && quiet < 4 {
                s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
                spent += 1;
                let now = s.runtime_counters().allocations;
                quiet = if now == last { quiet + 1 } else { 0 };
                last = now;
            }
            let counters = s.runtime_counters();
            assert!(counters.arena_bytes > 0, "the plan must pin an arena ({device:?})");
            assert!(
                quiet >= 4,
                "no allocation-free steady state within {spent} step(s) ({device:?})"
            );
        }
    }

}
