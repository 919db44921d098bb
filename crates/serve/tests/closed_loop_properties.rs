//! Property-based tests for the closed-loop load on the one event loop:
//! whatever the fleet shape, client count, request budget and crash
//! schedule, the run terminates having issued exactly its budget, every
//! request resolves exactly once, and no batch outgrows what the clients
//! can have outstanding.

use std::sync::Arc;

use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
use fathom_serve::{
    serve_cluster, BatchResult, BatchRunner, ClosedLoop, ClusterConfig, ClusterRunner,
    FaultyRunner, ModelSpec, Request, ServeError, SloClass, SloMix, SloPolicy,
};
use fathom_tensor::Tensor;
use proptest::prelude::*;

/// Fixed service time; records the ids of every batch it completes.
struct Recording {
    capacity: usize,
    batches: Vec<Vec<u64>>,
}

impl BatchRunner for Recording {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        self.batches.push(reqs.iter().map(|r| r.id).collect());
        Ok(BatchResult {
            outputs: reqs.iter().map(|_| Tensor::zeros([1])).collect(),
            service_nanos: 3_000_000.0,
            class_nanos: [0.0; 7],
        })
    }
}

impl ClusterRunner for Recording {
    fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn closed_loop_issues_its_budget_and_resolves_each_request_once(
        replicas in 1usize..4,
        max_batch in 1usize..5,
        clients in 1usize..10,
        requests in 0usize..60,
        queue_cap in 1usize..12,
        crashes in proptest::collection::vec((0usize..3, 0u64..12), 0..10),
        plan_seed in 0u64..1000,
    ) {
        let mut plan = FaultPlan::new(plan_seed);
        for (replica, hit) in &crashes {
            plan = plan.with(FaultSite::ServeBatch { replica: *replica }, *hit, FaultAction::Crash);
        }
        let plan = Arc::new(plan);
        let mut fleet: Vec<FaultyRunner<Recording>> = (0..replicas)
            .map(|i| {
                FaultyRunner::new(Recording { capacity: 4, batches: Vec::new() }, plan.clone(), i)
            })
            .collect();
        let mut models = [ModelSpec {
            name: "fake".into(),
            shards: vec![fleet.iter_mut().map(|r| r as &mut dyn ClusterRunner).collect()],
            rps: 0.0,
            synth: Box::new(|_rng, _id| Vec::new()),
        }];
        // No deadline: every request is one class with none.
        let cfg = ClusterConfig {
            queue_cap,
            slo: SloPolicy { deadline_nanos: [None; SloClass::COUNT] },
            mix: SloMix::pure(SloClass::Standard),
            closed_loop: Some(ClosedLoop { clients, requests }),
            ..ClusterConfig::new(max_batch)
        };
        // Returning at all is the termination property.
        let r = serve_cluster(&mut models, &cfg);
        drop(models);
        prop_assert!(r.is_ok(), "a closed loop with clients is servable: {:?} {:?}", r.err(), (replicas, max_batch, clients, requests, queue_cap, &crashes));
        let r = r.expect("checked above");

        prop_assert_eq!(r.issued(), requests as u64);
        prop_assert!(r.conserved(), "issued == completed + shed + timed_out, reasons itemized");
        prop_assert_eq!(r.timed_out(), 0, "no deadline was set");
        prop_assert!(r.recovery.dropped <= r.shed_reasons().replica_loss);

        let mut completed: Vec<u64> =
            fleet.iter().flat_map(|f| f.inner().batches.iter().flatten().copied()).collect();
        prop_assert_eq!(completed.len() as u64, r.completed());
        completed.sort_unstable();
        completed.dedup();
        prop_assert_eq!(completed.len() as u64, r.completed(), "an id completed twice");
        prop_assert!(completed.iter().all(|&id| id < requests as u64));

        let limit = max_batch.min(clients);
        for batch in fleet.iter().flat_map(|f| &f.inner().batches) {
            prop_assert!(batch.len() <= limit, "batch of {} over min(max_batch, clients) = {}", batch.len(), limit);
        }
        let batches: usize = fleet.iter().map(|f| f.inner().batches.len()).sum();
        prop_assert_eq!(r.models[0].batches, batches as u64);
    }
}
