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
//! * [`cluster`] — the crate's one event loop and its one entry,
//!   [`cluster::serve_cluster`], in deterministic virtual time: per-shard
//!   queues behind consistent-hash routing with load-aware spill
//!   ([`router::Router`]), per-request SLO classes and deadline-aware
//!   admission ([`slo::SloClass`]), continuous batching up to
//!   `max_batch`, bounded-queue load shedding, graceful drain, and
//!   zero-drop hot model reload from a checkpoint stream
//!   `checkpoint::load` accepts ([`cluster::ReloadPlan`]). Each model is
//!   offered an open-loop Poisson load, or the fleet a closed loop
//!   ([`cluster::ClosedLoop`]); one model on one shard is the smallest
//!   fleet, not a separate path;
//! * [`cluster::ClusterReport`] — per-class and per-model counts,
//!   latency quantiles, batch shape, queue depth and shed reasons, with
//!   the histogram and counter blocks of [`metrics`];
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
pub mod metrics;
pub mod router;
pub mod slo;
pub mod worker;

pub use chaos::FaultyRunner;
pub use cluster::{
    serve_cluster, ClassStats, ClosedLoop, ClusterConfig, ClusterReport, ClusterRunner,
    ModelReport, ModelSpec, RecoveryPolicy, ReloadPlan, SynthFn,
};
pub use metrics::{LatencyHistogram, RecoveryCounters, ShedBreakdown};
pub use router::{HashRing, Placement, Router};
pub use slo::{SloClass, SloMix, SloPolicy};
pub use worker::{synth_inputs, BatchResult, BatchRunner, Request, ServeError, SessionWorker};

/// Report fixtures: FNV-1a hashes of same-seed report JSON.
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
