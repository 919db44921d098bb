//! Operation-level execution tracing.
//!
//! The paper's entire methodology rests on "capturing performance
//! information at the model level" by instrumenting operations. A
//! [`RunTrace`] is the raw material every analysis in `fathom-profile`
//! consumes: one [`TraceEvent`] per executed operation, carrying the op
//! type, class, step index, and measured (or modeled) duration.

use std::time::Duration;

use crate::cost::OpCost;
use crate::graph::{Node, NodeId};
use crate::json::Json;
use crate::op::{GemmOp, OpClass, OpKind};

/// One executed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Graph node that ran.
    pub node: NodeId,
    /// Operation type name (`"MatMul"`, `"Conv2DBackpropFilter"`, …).
    pub op: &'static str,
    /// The paper's A–G class of the operation.
    pub class: OpClass,
    /// Which `Session::run` call this event belongs to.
    pub step: u64,
    /// Execution time in nanoseconds (wall time on a CPU device, modeled
    /// time on the simulated GPU).
    pub nanos: f64,
    /// Static cost estimate for the execution.
    pub cost: OpCost,
}

impl TraceEvent {
    /// Execution time as a [`Duration`].
    ///
    /// `nanos` is an `f64` because modeled devices synthesize it, and
    /// synthetic values can be negative, non-finite, or beyond `u64`
    /// range (chaos runs inject NaN deliberately). The conversion
    /// contract is explicit: NaN, negative, and `-inf` map to
    /// [`Duration::ZERO`]; values at or above `u64::MAX` nanoseconds
    /// (including `+inf`) saturate to `Duration::from_nanos(u64::MAX)`
    /// (~584 years); everything else truncates toward zero.
    pub fn duration(&self) -> Duration {
        if self.nanos.is_nan() || self.nanos <= 0.0 {
            return Duration::ZERO;
        }
        if self.nanos >= u64::MAX as f64 {
            return Duration::from_nanos(u64::MAX);
        }
        Duration::from_nanos(self.nanos as u64)
    }
}

/// Unified-runtime health counters, sampled per committed `run`.
///
/// All fields are cumulative over the sampled window except
/// `arena_bytes`, which is the arena's current learned footprint. A
/// steady-state step reports `allocations == 0`: every buffer it takes
/// is served from the arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Arena misses: takes that found no free buffer of their size and
    /// went to the heap. Zero once the arena has learned every size's
    /// high-water mark.
    pub allocations: u64,
    /// The arena's learned footprint: per buffer size, its high-water
    /// mark times its bytes, summed.
    pub arena_bytes: u64,
    /// Tasks stolen across worker deques in the shared work-stealing
    /// pool.
    pub steal_count: u64,
    /// Ops the pool driver ran at the full intra-op width: every op of
    /// every pooled step.
    pub wide_ops: u64,
    /// Ops run narrower than the full intra-op width. None are: every op
    /// dispatches at the device's width and the pool sizes each kernel by
    /// its work, so this stays 0; reports keep the key.
    pub coscheduled_ops: u64,
    /// Times a thread of the pool — a worker with nothing to run, a
    /// waiter, a kernel barrier — spun its budget out and actually went
    /// to sleep.
    pub parks: u64,
    /// Ops the parallel executor ran by chain-following: on the thread
    /// that made them ready, without a queue round trip.
    pub inline_ops: u64,
    /// Bytes copied because a shared tensor buffer was written: the
    /// arena's [`BufferPool::copied_bytes`](fathom_tensor::BufferPool::copied_bytes).
    /// Values are shared, not copied, so a steady inference step copies
    /// nothing.
    pub copied_bytes: u64,
}

impl RuntimeCounters {
    /// Whether any counter is nonzero — reports emit the block only
    /// then, so runs that never exercise the unified runtime keep
    /// byte-identical output.
    pub fn any(&self) -> bool {
        *self != RuntimeCounters::default()
    }

    /// The change since `base` — run-scoped deltas from cumulative
    /// session counters. `arena_bytes` is a level, not a rate, so it is
    /// passed through. Saturating: a session rebuild (crash recovery)
    /// resets the counters, which must not underflow.
    pub fn delta_since(&self, base: &RuntimeCounters) -> RuntimeCounters {
        RuntimeCounters {
            allocations: self.allocations.saturating_sub(base.allocations),
            arena_bytes: self.arena_bytes,
            steal_count: self.steal_count.saturating_sub(base.steal_count),
            wide_ops: self.wide_ops.saturating_sub(base.wide_ops),
            coscheduled_ops: self.coscheduled_ops.saturating_sub(base.coscheduled_ops),
            parks: self.parks.saturating_sub(base.parks),
            inline_ops: self.inline_ops.saturating_sub(base.inline_ops),
            copied_bytes: self.copied_bytes.saturating_sub(base.copied_bytes),
        }
    }

    /// The counters as one JSON object (see `From<RuntimeCounters> for
    /// Json`), rendered as it appears inside a report.
    pub fn to_json(&self) -> String {
        Json::from(*self).render_nested()
    }

    /// Accumulates another sample (`arena_bytes` takes the maximum, the
    /// rest add).
    pub fn merge(&mut self, other: &RuntimeCounters) {
        self.allocations += other.allocations;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.steal_count += other.steal_count;
        self.wide_ops += other.wide_ops;
        self.coscheduled_ops += other.coscheduled_ops;
        self.parks += other.parks;
        self.inline_ops += other.inline_ops;
        self.copied_bytes += other.copied_bytes;
    }
}

/// The `runtime` block of every report. `parks`, `inline_ops` and
/// `copied_bytes` appear only when nonzero, so reports of runs that never
/// park, chain-follow or copy are unchanged.
impl From<RuntimeCounters> for Json {
    fn from(c: RuntimeCounters) -> Json {
        Json::obj()
            .with("allocations", c.allocations)
            .with("arena_bytes", c.arena_bytes)
            .with("steal_count", c.steal_count)
            .with("wide_ops", c.wide_ops)
            .with("coscheduled_ops", c.coscheduled_ops)
            .with_nondefault("parks", c.parks)
            .with_nondefault("inline_ops", c.inline_ops)
            .with_nondefault("copied_bytes", c.copied_bytes)
    }
}

/// All events captured across one or more traced steps, plus the
/// end-to-end wall time of those steps (used to quantify inter-op
/// overhead, paper §V-A).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    /// Per-operation events in execution order.
    pub events: Vec<TraceEvent>,
    /// Total wall time of the traced `run` calls, in nanoseconds.
    pub total_nanos: f64,
    /// Number of `run` calls traced.
    pub steps: u64,
    /// Highest number of bytes simultaneously live in intermediate
    /// tensors across the traced steps (the executor frees values after
    /// their last consumer).
    pub peak_live_bytes: u64,
    /// Unified-runtime counters accumulated over the traced steps.
    pub runtime: RuntimeCounters,
}

impl RunTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        RunTrace::default()
    }

    /// Sum of per-operation times, in nanoseconds.
    pub fn op_nanos(&self) -> f64 {
        self.events.iter().map(|e| e.nanos).sum()
    }

    /// Fraction of total wall time spent *outside* operations. The paper
    /// reports this is "typically less than 1-2%" for TensorFlow; the
    /// `overhead_check` bench verifies the same property here.
    ///
    /// Returns 0 when no wall time was recorded (e.g. on a modeled
    /// device).
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_nanos <= 0.0 {
            return 0.0;
        }
        ((self.total_nanos - self.op_nanos()) / self.total_nanos).max(0.0)
    }

    /// Appends the events of another trace, accumulating wall time.
    pub fn merge(&mut self, other: RunTrace) {
        self.events.extend(other.events);
        self.total_nanos += other.total_nanos;
        self.steps += other.steps;
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
        self.runtime.merge(&other.runtime);
    }
}

/// Appends the trace event(s) for one executed op.
///
/// A [`OpKind::Fused`] node expands into one event per constituent
/// instruction — each carrying the original elementwise op's name and
/// class C, with the measured duration and cost apportioned by the
/// instructions' static flop weights (remainder on the last event, so
/// per-step sums are exact). An [`OpKind::GemmFused`] node likewise
/// expands into one event for the GEMM root (its original `MatMul` /
/// `Conv2D` name and class) plus one class-C event per epilogue
/// instruction. Profiles over fused runs therefore keep reporting
/// constituent op types, and the paper's class breakdown remains
/// comparable before/after fusion.
pub(crate) fn push_trace_events(
    events: &mut Vec<TraceEvent>,
    id: NodeId,
    node: &Node,
    step: u64,
    nanos: f64,
    op_cost: OpCost,
) {
    match &node.kind {
        OpKind::Fused(program) => {
            let parts: Vec<(&'static str, OpClass, f64)> = program
                .instrs
                .iter()
                .map(|instr| {
                    (
                        instr.op.name(),
                        OpClass::ElementwiseArithmetic,
                        instr.op.flops_per_elem(instr.args.len()),
                    )
                })
                .collect();
            push_apportioned(events, id, step, nanos, op_cost, &parts);
        }
        OpKind::GemmFused { gemm, epilogue } => {
            let elems = node.shape.num_elements() as f64;
            let (root_op, root_class) = match gemm {
                GemmOp::MatMul { .. } => ("MatMul", OpClass::MatrixOps),
                GemmOp::Conv2D(_) => ("Conv2D", OpClass::Convolution),
            };
            let mut parts = Vec::with_capacity(epilogue.instrs.len() + 1);
            let ep_flops: f64 = epilogue
                .instrs
                .iter()
                .map(|i| i.op.flops_per_elem(i.args.len()) * elems)
                .sum();
            // The root's weight is whatever the cost model attributed to
            // the GEMM itself (total minus the epilogue's share).
            parts.push((root_op, root_class, (op_cost.flops - ep_flops).max(0.0)));
            for instr in &epilogue.instrs {
                parts.push((
                    instr.op.name(),
                    OpClass::ElementwiseArithmetic,
                    instr.op.flops_per_elem(instr.args.len()) * elems,
                ));
            }
            push_apportioned(events, id, step, nanos, op_cost, &parts);
        }
        _ => events.push(TraceEvent {
            node: id,
            op: node.kind.name(),
            class: node.kind.class(),
            step,
            nanos,
            cost: op_cost,
        }),
    }
}

/// Splits one measured op across `parts` by static flop weight, with the
/// remainder on the last event so per-step sums stay exact.
fn push_apportioned(
    events: &mut Vec<TraceEvent>,
    id: NodeId,
    step: u64,
    nanos: f64,
    op_cost: OpCost,
    parts: &[(&'static str, OpClass, f64)],
) {
    let total: f64 = parts.iter().map(|p| p.2).sum();
    let count = parts.len();
    let (mut nanos_left, mut flops_left, mut bytes_left) = (nanos, op_cost.flops, op_cost.bytes);
    for (k, &(op, class, weight)) in parts.iter().enumerate() {
        let (n, f, b) = if k + 1 == count {
            (nanos_left, flops_left, bytes_left)
        } else {
            let frac = if total > 0.0 { weight / total } else { 1.0 / count as f64 };
            (nanos * frac, op_cost.flops * frac, op_cost.bytes * frac)
        };
        nanos_left -= n;
        flops_left -= f;
        bytes_left -= b;
        events.push(TraceEvent {
            node: id,
            op,
            class,
            step,
            nanos: n,
            cost: OpCost { flops: f, bytes: b },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(op: &'static str, class: OpClass, step: u64, nanos: f64) -> TraceEvent {
        TraceEvent {
            node: NodeId(0),
            op,
            class,
            step,
            nanos,
            cost: OpCost::default(),
        }
    }

    #[test]
    fn duration_clamps_pathological_nanos() {
        let at = |nanos: f64| event("Add", OpClass::ElementwiseArithmetic, 0, nanos).duration();
        assert_eq!(at(f64::NAN), Duration::ZERO);
        assert_eq!(at(-1.0), Duration::ZERO);
        assert_eq!(at(f64::NEG_INFINITY), Duration::ZERO);
        assert_eq!(at(0.0), Duration::ZERO);
        assert_eq!(at(f64::INFINITY), Duration::from_nanos(u64::MAX));
        assert_eq!(at(1e30), Duration::from_nanos(u64::MAX));
        assert_eq!(at(1_500.75), Duration::from_nanos(1_500));
    }

    #[test]
    fn overhead_fraction_math() {
        let mut t = RunTrace::new();
        t.events.push(event("MatMul", OpClass::MatrixOps, 0, 90.0));
        t.total_nanos = 100.0;
        t.steps = 1;
        assert!((t.overhead_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn overhead_clamped_at_zero() {
        let mut t = RunTrace::new();
        t.events.push(event("MatMul", OpClass::MatrixOps, 0, 110.0));
        t.total_nanos = 100.0;
        assert_eq!(t.overhead_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunTrace::new();
        a.events.push(event("Add", OpClass::ElementwiseArithmetic, 0, 10.0));
        a.total_nanos = 12.0;
        a.steps = 1;
        let mut b = RunTrace::new();
        b.events.push(event("Mul", OpClass::ElementwiseArithmetic, 1, 20.0));
        b.total_nanos = 25.0;
        b.steps = 1;
        a.merge(b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.total_nanos, 37.0);
        assert_eq!(a.steps, 2);
        assert_eq!(a.op_nanos(), 30.0);
    }

    #[test]
    fn runtime_counters_merge_adds_and_peaks() {
        let mut a = RuntimeCounters {
            allocations: 3,
            arena_bytes: 100,
            steal_count: 5,
            wide_ops: 2,
            coscheduled_ops: 1,
            parks: 6,
            inline_ops: 0,
            copied_bytes: 0,
        };
        let b = RuntimeCounters {
            allocations: 1,
            arena_bytes: 40,
            steal_count: 2,
            wide_ops: 1,
            coscheduled_ops: 4,
            parks: 1,
            inline_ops: 9,
            copied_bytes: 0,
        };
        a.merge(&b);
        assert_eq!(a.parks, 7);
        assert_eq!(a.inline_ops, 9);
        assert_eq!(a.allocations, 4);
        assert_eq!(a.arena_bytes, 100, "arena footprint is a peak, not a sum");
        assert_eq!(a.steal_count, 7);
        assert_eq!(a.wide_ops, 3);
        assert_eq!(a.coscheduled_ops, 5);
        assert!(a.any());
        assert!(!RuntimeCounters::default().any());
        assert_eq!(
            a.to_json(),
            "{\"allocations\": 4, \"arena_bytes\": 100, \"steal_count\": 7, \
             \"wide_ops\": 3, \"coscheduled_ops\": 5, \"parks\": 7, \"inline_ops\": 9}"
        );
        assert_eq!(
            RuntimeCounters { allocations: 2, ..RuntimeCounters::default() }.to_json(),
            "{\"allocations\": 2, \"arena_bytes\": 0, \"steal_count\": 0, \
             \"wide_ops\": 0, \"coscheduled_ops\": 0}",
            "zero parks/inline_ops leave the block as it was"
        );
        assert_eq!(
            RuntimeCounters { inline_ops: 2, ..RuntimeCounters::default() }.to_json(),
            "{\"allocations\": 0, \"arena_bytes\": 0, \"steal_count\": 0, \
             \"wide_ops\": 0, \"coscheduled_ops\": 0, \"inline_ops\": 2}",
            "each of the two is omitted on its own"
        );
        let mut copied = RuntimeCounters { copied_bytes: 8, ..RuntimeCounters::default() };
        copied.merge(&copied.clone());
        assert_eq!(copied.delta_since(&RuntimeCounters { copied_bytes: 4, ..copied }).copied_bytes, 12);
        assert_eq!(
            copied.to_json(),
            "{\"allocations\": 0, \"arena_bytes\": 0, \"steal_count\": 0, \
             \"wide_ops\": 0, \"coscheduled_ops\": 0, \"copied_bytes\": 16}",
            "copied bytes add up and appear only when nonzero"
        );
    }
}
