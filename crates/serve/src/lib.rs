//! `fathom-serve` — batched inference serving for the Fathom workloads.
//!
//! The paper frames its workloads as *reference benchmarks* for both
//! training and deployment; this crate adds the deployment half's
//! missing piece: a serving layer that coalesces independent inference
//! requests into the minibatches the graphs are built for, with the
//! admission-control and observability machinery a real model server
//! needs. It is deliberately framework-free and reuses the suite's own
//! substrate end to end:
//!
//! * [`worker::SessionWorker`] — one pre-built inference [`Session`]
//!   (with the inter-op executor and buffer recycling from
//!   `fathom-dataflow`) per replica, packing and splitting request
//!   tensors via `fathom_dataflow::batch` along each workload's declared
//!   [`BatchSpec`](fathom::BatchSpec);
//! * [`cluster`] — the crate's one event loop, in deterministic virtual
//!   time: per-shard queues behind consistent-hash routing with
//!   load-aware spill ([`router::Router`]), per-request SLO classes and
//!   deadline-aware admission ([`slo::SloClass`]), continuous batching
//!   or fixed `max_batch`/`max_delay` rounds ([`cluster::BatchPolicy`]),
//!   bounded-queue load shedding, graceful drain, and zero-drop hot
//!   model reload from a v2 checkpoint ([`cluster::ReloadPlan`]).
//!   [`cluster::serve_cluster`] offers it an open-loop load per model;
//! * [`engine::serve`] — the adapter for the 1 model x 1 shard x N
//!   replica case of that loop (fixed rounds, one class, open- or
//!   closed-loop load), returning the flat [`metrics::ServeReport`]:
//!   latency quantiles, queue depth, batch shape, shed/timeout counters
//!   and op-class time slices fed from the session trace;
//! * supervised recovery, in the loop — a failed replica is quarantined
//!   with exponential backoff and rebuilt from its checkpoint, its
//!   in-flight batch retries on a healthy replica, and
//!   [`metrics::RecoveryCounters`] account for every crash. The
//!   [`chaos::FaultyRunner`] wrapper drives all of it deterministically
//!   from a seeded [`FaultPlan`](fathom_dataflow::FaultPlan).
//!
//! The correctness contract is *batch independence*: a request's output
//! is bitwise identical whether it rode in a batch of one or a full
//! batch (verified for all eight workloads in `tests/serving.rs`).
//!
//! [`Session`]: fathom_dataflow::Session

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod engine;
pub mod metrics;
pub mod router;
pub mod slo;
pub mod worker;

pub use chaos::FaultyRunner;
pub use cluster::{
    serve_cluster, BatchPolicy, ClassStats, ClusterConfig, ClusterReport, ClusterRunner,
    ModelReport, ModelSpec, ReloadPlan, SynthFn,
};
pub use engine::{serve, LoadModel, RecoveryPolicy, ServeConfig};
pub use metrics::{LatencyHistogram, RecoveryCounters, ServeReport, ShedBreakdown};
pub use router::{HashRing, Placement, Router};
pub use slo::{SloClass, SloMix, SloPolicy};
pub use worker::{synth_inputs, BatchResult, BatchRunner, Request, ServeError, SessionWorker};

/// Report fixtures recorded at the parent of PR 18 (two event loops),
/// asserted on the one loop that replaced them.
#[cfg(test)]
pub(crate) mod pinned {
    /// Asserts that `json` hashes (FNV-1a, 64 bit) to `expected`.
    pub(crate) fn assert_pinned(what: &str, json: &str, expected: u64) {
        let hash = json
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(hash, expected, "{what}: report drifted from the pinned one ({hash:#018x}):\n{json}");
    }
}
