//! Single-model serving: [`serve`] adapts one model's replicas onto the
//! crate's one event loop ([`cluster`](crate::cluster)).
//!
//! `serve` is the 1 model x 1 shard x N replica case of the cluster:
//! one queue shared by every replica, continuous batching, a single
//! SLO class carrying the optional deadline, no spill and no reloads.
//! This module owns what is particular to that case — the
//! [`ServeConfig`] / [`LoadModel`] vocabulary, the closed-loop load, and
//! the flat [`ServeReport`] view of the one-model report — and nothing
//! of the loop itself.
//!
//! Dispatch rule: an idle replica takes up to `max_batch` queued
//! requests the moment it frees.
//! Admission rule: a request arriving to a queue at `queue_cap` is shed.
//! With a deadline set, admission and dispatch are the cluster's
//! deadline-aware ones: an arrival the backlog already makes late is
//! shed (`deadline_infeasible`), and a queued request that can no longer
//! finish inside its deadline is timed out (work already in flight
//! always completes).

use fathom_tensor::{Rng, Tensor};

use crate::cluster::{
    run, serve_cluster, Arrivals, ClusterConfig, ClusterReport, ClusterRunner, ModelSpec,
};
use crate::metrics::{LatencyHistogram, ServeReport};
use crate::slo::{SloClass, SloMix, SloPolicy};
use crate::worker::{BatchResult, BatchRunner, Request, ServeError};

/// Supervisor policy: what happens to a replica that fails a batch and
/// to the requests that were riding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Times one request may be re-queued after riding a failed batch
    /// before it is dropped (dropped requests count as shed).
    pub max_retries: u32,
    /// Quarantine length after a replica's first failure, in virtual
    /// nanoseconds; doubles with each subsequent restart of the same
    /// replica (exponential backoff).
    pub backoff_nanos: u64,
    /// Rebuilds attempted before a replica is retired for good.
    pub max_restarts: u32,
}

impl Default for RecoveryPolicy {
    /// Two retries per request, 5 ms initial backoff, two restarts per
    /// replica.
    fn default() -> Self {
        RecoveryPolicy { max_retries: 2, backoff_nanos: 5_000_000, max_restarts: 2 }
    }
}

/// Batching and admission parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Most requests coalesced into one session run.
    pub max_batch: usize,
    /// Admission bound: arrivals beyond this queue depth are shed.
    pub queue_cap: usize,
    /// When set, queued requests older than this are dropped (timed out)
    /// instead of dispatched.
    pub deadline_nanos: Option<u64>,
    /// Seed for the arrival process and request synthesis.
    pub seed: u64,
    /// Supervisor behavior for failed replicas and their batches.
    pub recovery: RecoveryPolicy,
}

impl ServeConfig {
    /// Sensible defaults around a coalescing limit: a queue of
    /// `8 * max_batch`, no deadline, default recovery policy.
    pub fn new(max_batch: usize) -> Self {
        ServeConfig {
            max_batch,
            queue_cap: 8 * max_batch,
            deadline_nanos: None,
            seed: 0xFA7408,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// How load is offered to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Open loop: a Poisson process at `rps` requests/second for
    /// `duration_nanos` of virtual time. Arrivals do not wait for
    /// responses, so overload sheds.
    Open {
        /// Offered rate, requests per second.
        rps: f64,
        /// Length of the arrival window, virtual nanoseconds.
        duration_nanos: u64,
    },
    /// Closed loop: `clients` concurrent callers, each issuing its next
    /// request the moment the previous one resolves, until `requests`
    /// total have been issued.
    Closed {
        /// Concurrent callers.
        clients: usize,
        /// Total requests across all callers.
        requests: usize,
    },
}

/// A [`BatchRunner`] standing in as a [`ClusterRunner`]: `serve` hands
/// the loop no reload plan, so `reload` is never called.
struct NoReload<'a>(&'a mut dyn BatchRunner);

impl BatchRunner for NoReload<'_> {
    fn capacity(&self) -> usize {
        self.0.capacity()
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        self.0.run_batch(reqs)
    }

    fn recover(&mut self) -> Result<(), ServeError> {
        self.0.recover()
    }

    fn runtime_counters(&self) -> fathom_dataflow::RuntimeCounters {
        self.0.runtime_counters()
    }
}

impl ClusterRunner for NoReload<'_> {
    fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
        Err(ServeError::Unservable("single-model serving has no hot reload".into()))
    }
}

/// Runs one serving experiment: offers `load` to `runners` under `cfg`,
/// synthesizing each admitted request's payload with `synth`.
///
/// `runners` is one [`BatchRunner`] per replica; each owns independent
/// session state. The virtual clock starts at 0 and the function returns
/// once every admitted request has resolved (completed, shed, or timed
/// out) — graceful drain, never mid-flight abandonment. An open-loop
/// `load` is [`serve_cluster`] over one model whose one shard holds
/// `runners`, under one SLO class carrying `cfg.deadline_nanos` and no
/// spill.
///
/// A runner failure does *not* abort the run: the supervisor
/// quarantines the replica (exponential backoff, then
/// [`BatchRunner::recover`]), re-queues the failed batch's requests at
/// the front of the queue for a healthy replica (each request at most
/// [`RecoveryPolicy::max_retries`] times, then it is dropped and counted
/// as shed), and retires replicas that keep failing. When every replica
/// is dead, remaining work is shed and the run still terminates with an
/// honest report. Conservation always holds:
/// `issued == completed + shed + timed_out`.
///
/// # Errors
///
/// Returns [`ServeError::Unservable`] when `runners` is empty, the
/// effective batch limit is zero, the open-loop rate is not finite and
/// positive, or a closed loop with requests to issue has no client; and
/// [`ServeError::Fault`] if the event loop ever stalls (a bug in the
/// loop, not a replica failure).
pub fn serve(
    runners: &mut [&mut dyn BatchRunner],
    cfg: &ServeConfig,
    load: &LoadModel,
    synth: &mut dyn FnMut(&mut Rng, u64) -> Vec<Tensor>,
    workload: &str,
) -> Result<ServeReport, ServeError> {
    if let LoadModel::Closed { clients: 0, requests: 1.. } = *load {
        return Err(ServeError::Unservable("closed-loop load needs at least one client".into()));
    }
    // The report names the effective coalescing limit, not the asked one.
    let max_batch = runners.iter().map(|r| r.capacity()).min().map_or(0, |c| c.min(cfg.max_batch));
    let mut slo = SloPolicy { deadline_nanos: [None; SloClass::COUNT] };
    slo.deadline_nanos[SloClass::Standard.idx()] = cfg.deadline_nanos;
    let cluster_cfg = ClusterConfig {
        queue_cap: cfg.queue_cap,
        slo,
        mix: SloMix::pure(SloClass::Standard),
        seed: cfg.seed,
        recovery: cfg.recovery,
        spill_threshold: None,
        ..ClusterConfig::new(max_batch)
    };
    let mut replicas: Vec<NoReload<'_>> = runners.iter_mut().map(|r| NoReload(&mut **r)).collect();
    let mut model = [ModelSpec {
        name: workload.to_string(),
        shards: vec![replicas.iter_mut().map(|r| r as &mut dyn ClusterRunner).collect()],
        // An open loop's rate is set below; a closed loop has none.
        rps: 0.0,
        synth: Box::new(synth),
    }];
    let report = match *load {
        LoadModel::Open { rps, duration_nanos } => {
            model[0].rps = rps;
            serve_cluster(&mut model, &ClusterConfig { duration_nanos, ..cluster_cfg })
        }
        LoadModel::Closed { clients, requests } => {
            let arrivals = Arrivals::closed(clients, requests);
            run(&mut model, &cluster_cfg, arrivals, Rng::seeded(cfg.seed))
        }
    };
    report.map(view)
}

/// The one-model cluster report, flattened over its (single) class.
fn view(mut report: ClusterReport) -> ServeReport {
    let mut latency = LatencyHistogram::new();
    for class in &report.per_class {
        latency.merge(&class.latency);
    }
    // Invariant: `serve` handed the loop exactly one model.
    let model = report.models.pop().expect("one model in, one model out");
    ServeReport {
        workload: model.model,
        max_batch: report.max_batch,
        replicas: model.replicas,
        issued: report.issued(),
        completed: report.completed(),
        shed: report.shed(),
        shed_reasons: report.shed_reasons(),
        timed_out: report.timed_out(),
        makespan_nanos: report.makespan_nanos,
        latency,
        recovery: report.recovery,
        runtime: report.runtime,
        admitted: model.admitted,
        max_queue_depth: model.max_queue_depth,
        batches: model.batches,
        batched_requests: model.batched_requests,
        class_nanos: model.class_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinned::assert_pinned;
    use crate::worker::BatchResult;

    /// Deterministic runner: fixed service time per batch, no tensors.
    struct FakeRunner {
        capacity: usize,
        service_nanos: f64,
        batches: Vec<usize>,
    }

    impl FakeRunner {
        fn new(capacity: usize, service_nanos: f64) -> Self {
            FakeRunner { capacity, service_nanos, batches: Vec::new() }
        }
    }

    impl BatchRunner for FakeRunner {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
            self.batches.push(reqs.len());
            Ok(BatchResult {
                outputs: reqs.iter().map(|_| Tensor::zeros([1])).collect(),
                service_nanos: self.service_nanos,
                class_nanos: [0.0; 7],
            })
        }
    }

    impl ClusterRunner for FakeRunner {
        fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
            Ok(())
        }
    }

    fn no_inputs(_rng: &mut Rng, _id: u64) -> Vec<Tensor> {
        Vec::new()
    }

    #[test]
    fn serve_is_the_one_model_one_shard_case_of_serve_cluster() {
        // Overloaded, with a deadline: completions, sheds and timeouts
        // all occur, so every counter below is exercised.
        let (seed, rps, duration_nanos) = (0x5EED, 1500.0, 300_000_000);
        let cfg =
            ServeConfig { queue_cap: 64, deadline_nanos: Some(40_000_000), seed, ..ServeConfig::new(4) };
        let load = LoadModel::Open { rps, duration_nanos };
        let (mut a, mut b) = (FakeRunner::new(4, 9_000_000.0), FakeRunner::new(4, 9_000_000.0));
        let single = serve(&mut [&mut a, &mut b], &cfg, &load, &mut no_inputs, "fake").unwrap();

        let (mut c, mut d) = (FakeRunner::new(4, 9_000_000.0), FakeRunner::new(4, 9_000_000.0));
        let mut models = [ModelSpec {
            name: "fake".into(),
            shards: vec![vec![&mut c as &mut dyn ClusterRunner, &mut d]],
            rps,
            synth: Box::new(no_inputs),
        }];
        let mut slo = SloPolicy { deadline_nanos: [None; SloClass::COUNT] };
        slo.deadline_nanos[SloClass::Standard.idx()] = cfg.deadline_nanos;
        let cluster_cfg = ClusterConfig {
            queue_cap: cfg.queue_cap,
            slo,
            mix: SloMix::pure(SloClass::Standard),
            duration_nanos,
            seed,
            spill_threshold: None,
            ..ClusterConfig::new(cfg.max_batch)
        };
        let cluster = serve_cluster(&mut models, &cluster_cfg).unwrap();

        assert!(single.completed > 0 && single.shed > 0 && single.timed_out > 0, "{single:?}");
        assert_eq!(
            (single.issued, single.completed, single.shed, single.timed_out),
            (cluster.issued(), cluster.completed(), cluster.shed(), cluster.timed_out())
        );
        assert_eq!(single.batches(), cluster.models[0].batches);
        let latency = &cluster.per_class[SloClass::Standard.idx()].latency;
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(single.latency.quantile(q), latency.quantile(q), "quantile {q}");
        }
        assert_eq!(single.latency.max(), latency.max());
    }

    #[test]
    fn open_loop_conserves_requests() {
        let mut runner = FakeRunner::new(4, 1_000_000.0);
        let cfg = ServeConfig::new(4);
        let load = LoadModel::Open { rps: 200.0, duration_nanos: 1_000_000_000 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert!(r.issued > 100, "Poisson(200 rps, 1 s) should issue ~200, got {}", r.issued);
        assert_eq!(r.issued, r.completed + r.shed + r.timed_out);
        assert_eq!(r.completed, runner.batches.iter().sum::<usize>() as u64);
        assert!(r.throughput_rps() > 0.0);
    }

    #[test]
    fn heavy_load_fills_batches() {
        // Service is slow relative to arrivals, so the queue backs up and
        // dispatches run at the coalescing limit.
        let mut runner = FakeRunner::new(4, 50_000_000.0);
        let cfg = ServeConfig { queue_cap: 64, ..ServeConfig::new(4) };
        let load = LoadModel::Open { rps: 1000.0, duration_nanos: 200_000_000 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        let full = runner.batches.iter().filter(|&&size| size == 4).count();
        assert_eq!(r.batches(), runner.batches.len() as u64);
        assert!(full * 2 > runner.batches.len(), "expected mostly full batches, sizes {:?}", runner.batches);
        assert!(r.max_queue_depth() > 4);
    }

    #[test]
    fn closed_loop_issues_exactly_the_request_budget() {
        let mut runner = FakeRunner::new(8, 3_000_000.0);
        let cfg = ServeConfig::new(4);
        let load = LoadModel::Closed { clients: 6, requests: 40 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert_eq!(r.issued, 40);
        assert_eq!(r.completed, 40);
        assert_eq!(r.shed, 0);
        assert_pinned("closed loop, 6 clients, 40 requests", &r.to_json(), 0x0ad4_6f98_1b5e_dd60);
        // 6 clients with zero think time never batch above the client count.
        assert!(runner.batches.iter().all(|&s| s <= 6));
    }

    #[test]
    fn tiny_queue_sheds_under_overload() {
        let mut runner = FakeRunner::new(2, 100_000_000.0);
        let cfg = ServeConfig { queue_cap: 2, ..ServeConfig::new(2) };
        let load = LoadModel::Open { rps: 500.0, duration_nanos: 500_000_000 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert!(r.shed > 0, "queue_cap=2 under 500 rps must shed");
        assert_eq!(r.issued, r.completed + r.shed + r.timed_out);
        assert_eq!(r.shed_reasons.total(), r.shed, "every shed carries a reason");
        assert_eq!(r.shed_reasons.queue_full, r.shed, "admission sheds are queue-full");
        assert_pinned("open loop, queue of 2 under overload", &r.to_json(), 0x293c_e96c_24f7_0d46);
    }

    #[test]
    fn deadlines_time_out_queued_work() {
        // One replica at 8 ms a request, a 10 ms deadline. An arrival
        // that finds the replica just started is admitted (one 8 ms
        // round fits) and then blows its deadline waiting for the
        // replica to free; one that finds a request already queued is
        // refused outright, the cluster's deadline-aware admission.
        let mut runner = FakeRunner::new(1, 8_000_000.0);
        let cfg = ServeConfig {
            deadline_nanos: Some(10_000_000),
            queue_cap: 64,
            ..ServeConfig::new(1)
        };
        let load = LoadModel::Open { rps: 100.0, duration_nanos: 1_000_000_000 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert!(r.timed_out > 0, "expected deadline expirations");
        assert!(r.shed_reasons.deadline_infeasible > 0, "expected deadline-aware sheds");
        assert_eq!(r.shed_reasons.total(), r.shed);
        assert_eq!(r.issued, r.completed + r.shed + r.timed_out);
        // In-flight work is never cancelled: every dispatched batch completes.
        assert_eq!(r.completed, runner.batches.iter().sum::<usize>() as u64);
        assert!(r.latency.max() <= 10_000_000.0, "no completion is late: {}", r.latency.max());
    }

    #[test]
    fn two_replicas_share_the_queue() {
        let mut a = FakeRunner::new(4, 20_000_000.0);
        let mut b = FakeRunner::new(4, 20_000_000.0);
        let cfg = ServeConfig { queue_cap: 64, ..ServeConfig::new(4) };
        let load = LoadModel::Open { rps: 400.0, duration_nanos: 300_000_000 };
        let r = serve(&mut [&mut a, &mut b], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert_eq!(r.replicas, 2);
        assert!(!a.batches.is_empty() && !b.batches.is_empty(), "both replicas must serve");
        assert_eq!(
            r.completed,
            (a.batches.iter().sum::<usize>() + b.batches.iter().sum::<usize>()) as u64
        );
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run = || {
            let mut runner = FakeRunner::new(4, 5_000_000.0);
            let cfg = ServeConfig::new(4);
            let load = LoadModel::Open { rps: 300.0, duration_nanos: 400_000_000 };
            serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap().to_json()
        };
        assert_eq!(run(), run());
        assert_pinned("open loop, 300 rps", &run(), 0x5f46_8357_8dcd_abfe);
    }

    #[test]
    fn crashed_batch_retries_on_a_healthy_replica() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        let plan = Arc::new(
            FaultPlan::new(7).with(FaultSite::ServeBatch { replica: 0 }, 0, FaultAction::Crash),
        );
        let mut a = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), plan.clone(), 0);
        let mut b = FakeRunner::new(4, 5_000_000.0);
        let cfg = ServeConfig::new(4);
        let load = LoadModel::Closed { clients: 4, requests: 24 };
        let r = serve(&mut [&mut a, &mut b], &cfg, &load, &mut no_inputs, "fake").unwrap();
        // One crash, every rider retried within budget: nothing is lost.
        assert_eq!(r.issued, 24);
        assert_eq!(r.completed, 24, "retried requests must complete: {:?}", r.recovery);
        assert_eq!(r.issued, r.completed + r.shed + r.timed_out);
        assert_eq!(r.recovery.crashes, 1);
        assert!(r.recovery.retried >= 1);
        assert_eq!(r.recovery.quarantines, 1);
        assert_eq!(r.recovery.recoveries, 1, "quarantine must expire into recovery");
        assert_eq!(r.recovery.dropped, 0);
        assert_eq!(plan.fired_count(), 1, "the injected crash must have fired");
        assert_pinned("closed loop, one crash, two replicas", &r.to_json(), 0xabd1_d62e_168c_9c33);
    }

    #[test]
    fn all_replicas_dead_sheds_everything_and_terminates() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        // Crash every dispatch: initial failure plus both restart
        // attempts (max_restarts = 2) retire the only replica.
        let mut plan = FaultPlan::new(3);
        for hit in 0..8 {
            plan = plan.with(FaultSite::ServeBatch { replica: 0 }, hit, FaultAction::Crash);
        }
        let mut only = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), Arc::new(plan), 0);
        let cfg = ServeConfig::new(4);
        let load = LoadModel::Closed { clients: 4, requests: 16 };
        let r = serve(&mut [&mut only], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert_eq!(r.completed, 0, "a dead fleet completes nothing");
        assert_eq!(r.issued, r.completed + r.shed + r.timed_out, "conservation holds");
        assert_eq!(r.recovery.dead_replicas, 1);
        assert!(r.recovery.dropped > 0, "retry-exhausted requests are dropped");
        assert_eq!(r.shed, r.issued, "every issued request is reported shed");
        assert_eq!(r.shed_reasons.total(), r.shed);
        assert_pinned("closed loop, every dispatch crashes", &r.to_json(), 0xa8fb_350e_d749_acfd);
        assert_eq!(
            r.shed_reasons.replica_loss, r.shed,
            "dead-fleet sheds are all attributed to replica loss"
        );
    }

    #[test]
    fn the_last_replica_dying_with_retries_left_still_terminates() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        // No restarts: the first crash retires the only replica while
        // its batch, retry budget intact, goes back on the queue. Every
        // client is waiting on that batch, so nothing else is scheduled
        // (the parent's loops reported a stall here).
        let plan = FaultPlan::new(5).with(FaultSite::ServeBatch { replica: 0 }, 0, FaultAction::Crash);
        let mut only = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), Arc::new(plan), 0);
        let cfg = ServeConfig {
            recovery: RecoveryPolicy { max_restarts: 0, ..RecoveryPolicy::default() },
            ..ServeConfig::new(4)
        };
        let load = LoadModel::Closed { clients: 2, requests: 4 };
        let r = serve(&mut [&mut only], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert_eq!((r.issued, r.completed, r.shed), (4, 0, 4));
        assert_eq!(r.shed_reasons.replica_loss, 4);
        assert_eq!((r.recovery.retried, r.recovery.dropped, r.recovery.dead_replicas), (2, 0, 1));
    }

    #[test]
    fn stalled_replica_inflates_service_time_deterministically() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        let plan = Arc::new(FaultPlan::new(1).with(
            FaultSite::ServeBatch { replica: 0 },
            0,
            FaultAction::Stall { nanos: 40_000_000 },
        ));
        let mut runner = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), plan, 0);
        let cfg = ServeConfig::new(4);
        let load = LoadModel::Closed { clients: 2, requests: 2 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert_eq!(r.completed, 2);
        assert_eq!(r.batches(), 1);
        assert_eq!(r.makespan_nanos, 45_000_000, "stall adds to service time");
    }

    #[test]
    fn same_fault_plan_seed_reproduces_the_identical_report() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::FaultPlan;
        use std::sync::Arc;

        let run = || {
            let plan = Arc::new(
                FaultPlan::parse("replica0@2=crash;replica1@5=stall:30000000", 9).unwrap(),
            );
            let mut a = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), plan.clone(), 0);
            let mut b = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), plan, 1);
            let cfg = ServeConfig { queue_cap: 64, ..ServeConfig::new(4) };
            let load = LoadModel::Open { rps: 400.0, duration_nanos: 300_000_000 };
            serve(&mut [&mut a, &mut b], &cfg, &load, &mut no_inputs, "fake").unwrap().to_json()
        };
        let first = run();
        assert!(first.contains("\"recovery\""), "faulted run must report recovery counters");
        assert_eq!(first, run());
        assert_pinned("open loop, crash and stall on two replicas", &first, 0xab76_8395_3d23_d88f);
    }

    #[test]
    fn empty_replica_set_is_unservable_not_a_panic() {
        let cfg = ServeConfig::new(4);
        let load = LoadModel::Closed { clients: 1, requests: 1 };
        let err = serve(&mut [], &cfg, &load, &mut no_inputs, "fake").unwrap_err();
        assert!(matches!(err, ServeError::Unservable(_)), "got {err}");
    }

    #[test]
    fn degenerate_loads_are_unservable_not_a_hang() {
        let cfg = ServeConfig::new(4);
        for rps in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let mut runner = FakeRunner::new(4, 1_000_000.0);
            let load = LoadModel::Open { rps, duration_nanos: 1_000_000_000 };
            let err = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap_err();
            assert!(matches!(err, ServeError::Unservable(_)), "rps {rps}: got {err}");
        }
        // Requests to issue and nobody to issue them.
        let mut runner = FakeRunner::new(4, 1_000_000.0);
        let load = LoadModel::Closed { clients: 0, requests: 3 };
        let err = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap_err();
        assert!(matches!(err, ServeError::Unservable(_)), "got {err}");
    }

    #[test]
    fn a_deadline_of_u64_max_means_never() {
        // Deadlines are arrival + span; at u64::MAX the sum must stay in
        // the future (nothing times out), not wrap into the past.
        let mut runner = FakeRunner::new(4, 1_000_000.0);
        let cfg = ServeConfig { deadline_nanos: Some(u64::MAX), queue_cap: 1024, ..ServeConfig::new(4) };
        let load = LoadModel::Open { rps: 300.0, duration_nanos: 200_000_000 };
        let r = serve(&mut [&mut runner], &cfg, &load, &mut no_inputs, "fake").unwrap();
        assert!(r.issued > 20);
        assert_eq!((r.completed, r.shed, r.timed_out), (r.issued, 0, 0));
    }
}
