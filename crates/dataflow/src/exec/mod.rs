//! The session: plans and executes dataflow graphs.
//!
//! Operations are "the smallest schedulable unit" (paper §V-A). A
//! [`Session`] plans the fetched subgraph once (`plan`: topological
//! order, per-node liveness and dependency counts) and then runs every
//! step of it through **one node path under one of two step drivers**:
//!
//! * the node path (`step`): `run_node` dispatches the op on the
//!   session's pool (`dispatch::dispatch_op`), probes the armed fault
//!   plan and takes the op's timestamp; after a step that ran to
//!   completion, `emit` walks the per-position timestamps in plan order,
//!   applies the [`Device`](crate::Device) time model and records one
//!   [`crate::trace::TraceEvent`] per execution; `extract_fetches` hands
//!   the fetched values out. [`Session::run`] wraps both drivers in the
//!   same validation, rollback, guardrail and epilogue. A profile
//!   therefore means the same thing whichever driver produced it;
//! * the **serial driver** (`step::run_serial`), a walk in plan order
//!   over a plain `Vec<Option<Tensor>>`, used when the device has a
//!   single inter-op worker or is a modeled (`SimCpu`/`SimGpu`) device.
//!   It is the reference every bitwise gate compares against;
//! * the **pool driver** (`pool::run_pooled`), used when the device
//!   advertises more than one inter-op worker
//!   ([`Device::cpu_inter_op`](crate::Device::cpu_inter_op)). Ops are
//!   released by dependency counting. An op that makes a pure consumer
//!   ready runs it next *on the same thread* (chain-following); only
//!   further ready consumers are queued as tasks on the device's shared
//!   [`Runtime`](fathom_tensor::Runtime) — the *same* pool that executes
//!   intra-op kernel chunks, so there is no static split between
//!   inter-op and intra-op workers. Stateful ops (`Variable` reads,
//!   `Apply` writes, RNG sampling) are chained in plan order and run
//!   only on the coordinating thread, so results are bitwise identical
//!   to the serial driver regardless of worker timing.
//!
//! Ordering and liveness release are the two things each driver keeps to
//! itself: the serial walk must not depend on the slot protocol it is
//! the reference for.
//!
//! There is one width rule, and it is the kernel's: both drivers hand
//! every op the device's full intra-op width, and each dispatch takes one
//! worker per grain of its work (see [`fathom_tensor::ExecPool`]). A
//! worker busy with a co-scheduled op costs a dispatch nothing — the
//! caller runs the unclaimed chunks — so ops share the machine without a
//! plan-time split. Kernels compute the same bits at every width and on
//! whichever thread runs a chunk, which keeps the drivers bitwise
//! interchangeable.
//!
//! Both drivers release intermediates eagerly at their last use; freed
//! buffers flow back to the session's arena, a
//! [`BufferPool`](fathom_tensor::BufferPool), via
//! [`Tensor`](fathom_tensor::Tensor)'s drop hook. The arena learns each
//! buffer size's high-water mark from its own misses, so once a step has
//! repeated, steps perform zero heap allocations (the
//! [`Session::runtime_counters`] `allocations` field counts every
//! miss). Inter-op overhead is kept minimal — the `overhead_check`
//! bench verifies the paper's "<1-2% outside of operations" property.

use std::fmt;

use crate::graph::NodeId;

mod dispatch;
mod plan;
mod pool;
mod session;
mod step;
mod tests;

pub use session::{Guardrail, Session};

/// Errors produced while running a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A placeholder in the fetched subgraph was not fed.
    MissingFeed(NodeId),
    /// A fed value's shape disagrees with the placeholder's declaration.
    FeedShape {
        /// The placeholder.
        node: NodeId,
        /// Explanation of the mismatch.
        msg: String,
    },
    /// A fetch or feed id does not belong to the session's graph.
    UnknownNode(NodeId),
    /// An `Apply` op's first input is not a `Variable` node.
    NotAVariable(NodeId),
    /// A label tensor contained an invalid entry.
    BadLabels(String),
    /// A numeric guardrail tripped after the step executed; the step was
    /// rolled back (see [`Session::set_guardrail`]).
    GuardTripped(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingFeed(n) => write!(f, "placeholder {n} was not fed"),
            ExecError::FeedShape { node, msg } => write!(f, "bad feed for {node}: {msg}"),
            ExecError::UnknownNode(n) => write!(f, "node {n} does not belong to this session's graph"),
            ExecError::NotAVariable(n) => write!(f, "node {n} is not a variable"),
            ExecError::BadLabels(msg) => write!(f, "invalid labels: {msg}"),
            ExecError::GuardTripped(msg) => {
                write!(f, "guardrail tripped ({msg}); the step was rolled back")
            }
        }
    }
}

impl std::error::Error for ExecError {}

