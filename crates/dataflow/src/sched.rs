//! Analytic inter-op scheduling model.
//!
//! [`modeled_makespan`] replays one traced training step through a greedy
//! list scheduler: ops are considered in plan (trace) order, each starts
//! as soon as its dataflow dependencies have finished and a worker is
//! free, and ops that [`crate::OpKind::needs_serial`] are pinned to
//! worker 0 in plan order — exactly the discipline the real parallel
//! executor enforces. The result is the modeled wall-clock of the step at
//! a given inter-op worker count, which lets the `ablation_scheduler`
//! bench sweep worker counts past the host's physical core count (the
//! same "model what you cannot measure" approach as [`crate::Device::sim_cpu`]).

use std::collections::HashMap;

use crate::graph::Graph;
use crate::trace::TraceEvent;

/// One `Runtime::for_chunks` round trip with a spinning peer, in
/// nanoseconds: publish, claim, retire. Measured on the 2-core reference
/// host (0.6 to 0.7 µs); a parked peer costs a futex wake on top, which
/// the spin budget makes rare inside a step.
const DISPATCH_NANOS: usize = 700;

/// Work elements one core retires per nanosecond on the bandwidth-bound
/// elementwise and reduction ops that make up most launches: about one
/// element a nanosecond at three f32 moved per element. GEMMs retire an
/// order of magnitude more, but their kernels cap their own width by
/// tile count, so the slow end is the one this threshold must get right.
const WORK_PER_NANO: usize = 3;

/// A split has to buy every worker this many dispatches' worth of work,
/// or the barrier at its end eats the gain.
const DISPATCHES_AMORTIZED: usize = 8;

/// Work (in [`crate::cost::OpCost::work_elements`]) each worker of a
/// split op must bring for the split to pay: the `grain` the planner
/// hands to [`chosen_width`].
pub const SPLIT_GRAIN: usize = DISPATCH_NANOS * WORK_PER_NANO * DISPATCHES_AMORTIZED;

/// How much lighter than an op a same-depth neighbour may be and still
/// count as its peer. A neighbour with less than `1 / PEER_FACTOR` of the
/// op's work finishes before it matters: the worker it occupied comes
/// back while the op is still running, and claims its chunks then.
pub const PEER_FACTOR: usize = 4;

/// How many of the co-runnable ops whose work is listed (ascending) in
/// `level_work` are peers of an op with `own` work: those at least
/// `own / PEER_FACTOR` heavy, the op itself included (so the answer is
/// at least one when `own` is in the list). Zero-cost neighbours —
/// placeholders, constants, variable reads, reshapes — are peers of one
/// another but never of a GEMM or a convolution.
pub fn comparable_peers(level_work: &[usize], own: usize) -> usize {
    let floor = own.div_ceil(PEER_FACTOR);
    let lighter = level_work.partition_point(|&w| w < floor);
    (level_work.len() - lighter).max(1)
}

/// Moldable-task width decision: how many intra-op threads one op should
/// use when `peers` ops are runnable at the same time on a machine with
/// `workers` threads, given the op's estimated `work` (in elements, see
/// [`crate::cost::OpCost::work_elements`]) and the pool's dispatch
/// `grain`.
///
/// The rule composes two caps:
///
/// * **work cap** — an op never gets more threads than its work can feed
///   (one per `grain` elements, matching the pool's own sizing policy),
/// * **fair share** — when `peers` independent ops are runnable, each is
///   molded down to `ceil(workers / peers)` so they co-schedule instead
///   of queueing behind one wide op.
///
/// The result is always in `1..=workers` and is monotone non-decreasing
/// in `workers` (more machine never shrinks an op's width) — properties
/// pinned by the `sched_properties` proptests.
pub fn chosen_width(work: usize, peers: usize, workers: usize, grain: usize) -> usize {
    let workers = workers.max(1);
    let by_work = (work / grain.max(1)).max(1);
    let share = workers.div_ceil(peers.max(1));
    by_work.min(share).max(1)
}

/// Modeled wall-clock nanoseconds for executing one traced step on
/// `workers` inter-op workers.
///
/// `events` must be the trace of a single step, in execution (plan)
/// order, produced against the same `graph`; per-op durations are taken
/// from [`TraceEvent::nanos`]. With `workers == 1` the result is exactly
/// the sum of the op durations. Inter-op dispatch overhead is not
/// modeled, so the value is a lower bound on real wall-clock.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn modeled_makespan(graph: &Graph, events: &[TraceEvent], workers: usize) -> f64 {
    assert!(workers > 0, "makespan model needs at least one worker");
    // Map traced nodes to their event index so graph edges outside the
    // traced (planned) subgraph are ignored.
    let mut event_of: HashMap<usize, usize> = HashMap::with_capacity(events.len());
    for (idx, e) in events.iter().enumerate() {
        event_of.insert(e.node.index(), idx);
    }
    let mut finish = vec![0.0f64; events.len()];
    let mut worker_free = vec![0.0f64; workers];
    let mut prev_serial: Option<usize> = None;
    let mut makespan = 0.0f64;
    for (idx, e) in events.iter().enumerate() {
        let node = graph.node(e.node);
        let mut ready = 0.0f64;
        for input in &node.inputs {
            if let Some(&dep) = event_of.get(&input.index()) {
                ready = ready.max(finish[dep]);
            }
        }
        let serial = node.kind.needs_serial();
        if serial {
            // The serialization chain adds an edge from the previous
            // stateful/RNG op, and the op itself runs on the coordinator.
            if let Some(prev) = prev_serial {
                ready = ready.max(finish[prev]);
            }
            prev_serial = Some(idx);
        }
        let worker = if serial {
            0
        } else {
            // Greedy: the worker that frees up first.
            let mut best = 0;
            for (w, &free) in worker_free.iter().enumerate() {
                if free < worker_free[best] {
                    best = w;
                }
            }
            best
        };
        let start = ready.max(worker_free[worker]);
        let end = start + e.nanos;
        finish[idx] = end;
        worker_free[worker] = end;
        makespan = makespan.max(end);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::exec::Session;
    use crate::graph::Graph;
    use fathom_tensor::{Shape, Tensor};

    /// Traces one run of a small two-branch graph and returns it with
    /// the events.
    fn traced_diamond() -> (Graph, Vec<TraceEvent>) {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(24, 24));
        let a = g.matmul(x, x);
        let b = g.tanh(x);
        let c = g.add_op(a, b);
        let mut s = Session::new(g.clone(), Device::cpu(1));
        s.enable_tracing();
        s.run(&[c], &[(x, Tensor::ones([24, 24]))]).unwrap();
        (g, s.take_trace().events)
    }

    #[test]
    fn one_worker_is_the_serial_sum() {
        let (g, events) = traced_diamond();
        let total: f64 = events.iter().map(|e| e.nanos).sum();
        let makespan = modeled_makespan(&g, &events, 1);
        assert!((makespan - total).abs() < 1e-6, "{makespan} vs {total}");
    }

    #[test]
    fn makespan_is_monotone_in_workers() {
        let (g, events) = traced_diamond();
        let mut prev = f64::INFINITY;
        for w in 1..=8 {
            let m = modeled_makespan(&g, &events, w);
            assert!(m <= prev + 1e-9, "makespan increased at {w} workers");
            prev = m;
        }
    }

    #[test]
    fn makespan_never_beats_the_critical_path() {
        let (g, events) = traced_diamond();
        // With unbounded workers the makespan is the critical path.
        let critical = modeled_makespan(&g, &events, events.len().max(1));
        let m8 = modeled_makespan(&g, &events, 8);
        assert!(m8 + 1e-9 >= critical);
        // The diamond's critical path includes the longest branch.
        let longest = events.iter().map(|e| e.nanos).fold(0.0, f64::max);
        assert!(critical + 1e-9 >= longest);
    }

    #[test]
    fn independent_branches_overlap_at_two_workers() {
        // Two equal-cost independent chains from one placeholder: with
        // two workers, the chains (but not the shared input or the final
        // add) should overlap.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(64));
        let a = g.tanh(x);
        let b = g.exp(x);
        let c = g.add_op(a, b);
        let mut s = Session::new(g.clone(), Device::cpu(1));
        s.enable_tracing();
        s.run(&[c], &[(x, Tensor::ones([64]))]).unwrap();
        let events = s.take_trace().events;
        let serial = modeled_makespan(&g, &events, 1);
        let dual = modeled_makespan(&g, &events, 2);
        assert!(dual <= serial);
    }

    #[test]
    fn serial_ops_are_pinned_to_one_worker() {
        // A graph that is pure RNG draws: no matter the worker count,
        // the makespan must stay the serial sum (RNG ops are chained).
        let mut g = Graph::new();
        let r1 = g.random_normal([32]);
        let r2 = g.random_normal([32]);
        let r3 = g.random_normal([32]);
        let a = g.add_op(r1, r2);
        let b = g.add_op(a, r3);
        let mut s = Session::new(g.clone(), Device::cpu(1));
        s.enable_tracing();
        s.run(&[b], &[]).unwrap();
        let events = s.take_trace().events;
        let rng_sum: f64 = events
            .iter()
            .filter(|e| g.node(e.node).kind.needs_serial())
            .map(|e| e.nanos)
            .sum();
        let m8 = modeled_makespan(&g, &events, 8);
        assert!(m8 + 1e-9 >= rng_sum, "chained RNG ops cannot overlap");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let (g, events) = traced_diamond();
        modeled_makespan(&g, &events, 0);
    }

    /// Pins the moldable-width decisions for the five `BENCH_gemm`
    /// geometries: every bench GEMM is big enough to saturate the work
    /// cap, so its width is exactly the fair share of the machine.
    #[test]
    fn width_decisions_for_the_bench_gemm_geometries() {
        use crate::cost::OpCost;
        // (m, k, n) for the five BENCH_gemm geometries; the transpose
        // variants share the first geometry's work.
        const GEOMETRIES: [(usize, usize, usize); 5] = [
            (512, 512, 512),
            (512, 512, 512),
            (512, 512, 512),
            (64, 1024, 1024),
            (32, 512, 512),
        ];
        for &(m, k, n) in &GEOMETRIES {
            let cost = OpCost {
                flops: (2 * m * k * n) as f64,
                bytes: (4 * (m * k + k * n + m * n)) as f64,
            };
            let work = cost.work_elements();
            assert_eq!(chosen_width(work, 1, 8, SPLIT_GRAIN), 8, "{m}x{k}x{n} alone runs wide");
            assert_eq!(chosen_width(work, 2, 8, SPLIT_GRAIN), 4);
            assert_eq!(chosen_width(work, 4, 8, SPLIT_GRAIN), 2);
            assert_eq!(chosen_width(work, 8, 8, SPLIT_GRAIN), 1);
        }
        // A tiny op is molded to one thread even with the machine to
        // itself: its work cannot feed a second worker.
        assert_eq!(chosen_width(64, 1, 8, SPLIT_GRAIN), 1);
    }
}
