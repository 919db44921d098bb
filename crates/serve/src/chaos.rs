//! Fault-injection wrappers for serve replicas.
//!
//! [`FaultyRunner`] decorates any [`BatchRunner`] with a shared
//! [`FaultPlan`]: before each dispatch it asks the plan whether this
//! replica's next batch should crash or stall. Because the plan is
//! seeded and counts dispatches deterministically, the same plan spec
//! reproduces the identical failure schedule — and therefore the
//! identical [`ServeReport`](crate::metrics::ServeReport) or
//! [`ClusterReport`](crate::cluster::ClusterReport) — run after run.

use std::sync::Arc;

use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};

use crate::cluster::ClusterRunner;
use crate::worker::{BatchResult, BatchRunner, Request, ServeError};

/// A [`BatchRunner`] that consults a [`FaultPlan`] before delegating.
///
/// Only serve-site actions are honored: [`FaultAction::Crash`] fails
/// the batch with [`ServeError::Fault`] (the inner runner is not
/// invoked), [`FaultAction::Stall`] runs the batch and inflates its
/// service time. Other actions at this site are ignored.
pub struct FaultyRunner<R: BatchRunner> {
    inner: R,
    plan: Arc<FaultPlan>,
    replica: usize,
}

impl<R: BatchRunner> FaultyRunner<R> {
    /// Wraps `inner` as replica `replica` under `plan`. The index is the
    /// caller's numbering — position in the slice handed to
    /// [`serve`](crate::engine::serve), or fleet-wide model -> shard ->
    /// replica order under [`serve_cluster`](crate::cluster::serve_cluster)
    /// — and is what `replica<N>` specs target.
    pub fn new(inner: R, plan: Arc<FaultPlan>, replica: usize) -> Self {
        FaultyRunner { inner, plan, replica }
    }

    /// The wrapped runner.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: BatchRunner> BatchRunner for FaultyRunner<R> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        match self.plan.check(FaultSite::ServeBatch { replica: self.replica }) {
            Some(FaultAction::Crash) => Err(ServeError::Fault(format!(
                "injected crash on replica {}",
                self.replica
            ))),
            Some(FaultAction::Stall { nanos }) => {
                let mut result = self.inner.run_batch(reqs)?;
                result.service_nanos += nanos as f64;
                Ok(result)
            }
            _ => self.inner.run_batch(reqs),
        }
    }

    fn recover(&mut self) -> Result<(), ServeError> {
        self.inner.recover()
    }

    fn runtime_counters(&self) -> fathom_dataflow::RuntimeCounters {
        self.inner.runtime_counters()
    }
}

impl<R: ClusterRunner> ClusterRunner for FaultyRunner<R> {
    /// Reloads pass straight through: the fault plan only gates batch
    /// dispatch, so a swap succeeds even on a replica scheduled to
    /// crash — failures during reload come from the inner runner.
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
        self.inner.reload(checkpoint)
    }
}
