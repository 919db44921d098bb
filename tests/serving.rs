//! Integration: the serving layer's correctness contract.
//!
//! The central claim is *batch independence*: a request's output is
//! bitwise identical whether it rode alone through a batch-1 graph or
//! packed with unrelated requests through a batch-4 graph. That holds
//! for every workload because (a) each `BatchSpec` names only
//! batch-independent fetches, (b) normalization in inference graphs is
//! per-sample (`instance_norm`), and (c) the session RNG streams values
//! row-major, so a full batch reads exactly what the same-seed serial
//! session reads across consecutive runs.

use fathom_suite::fathom::{BuildConfig, ModelKind};
use fathom_suite::fathom_dataflow::checkpoint;
use fathom_suite::fathom_serve::{
    serve_cluster, synth_inputs, BatchRunner, ClosedLoop, ClusterConfig, ClusterReport,
    ClusterRunner, ModelSpec, Request, SessionWorker, SloClass, SloMix, SloPolicy, SynthFn,
};
use fathom_suite::fathom_tensor::Rng;

const BATCH: usize = 4;
const SEED: u64 = 0xBA7C4;

fn requests_for(worker: &SessionWorker, n: usize) -> Vec<Request> {
    // Payloads come from a fixed, worker-independent stream so the
    // batched and serial sides see identical bytes.
    let mut rng = Rng::seeded(0x5EED);
    let shapes = worker.item_shapes();
    let domains = worker.domains();
    (0..n)
        .map(|i| Request {
            id: i as u64,
            arrival: 0,
            inputs: synth_inputs(&shapes, &domains, &mut rng),
        })
        .collect()
}

/// One model on one shard at `max_batch`, every request Standard with
/// no deadline, a queue of 64.
fn one_class(max_batch: usize) -> ClusterConfig {
    ClusterConfig {
        queue_cap: 64,
        slo: SloPolicy { deadline_nanos: [None; SloClass::COUNT] },
        mix: SloMix::pure(SloClass::Standard),
        seed: 0xFA7408,
        ..ClusterConfig::new(max_batch)
    }
}

/// Serves `replicas` as one model on one shard, offered `rps` (unread
/// under a closed loop) under `cfg`.
fn serve_one_shard<'a>(
    replicas: Vec<&'a mut dyn ClusterRunner>,
    synth: SynthFn<'a>,
    rps: f64,
    cfg: &ClusterConfig,
) -> ClusterReport {
    let mut models = [ModelSpec { name: "one".into(), shards: vec![replicas], rps, synth }];
    serve_cluster(&mut models, cfg).expect("serves")
}

#[test]
fn batched_serving_is_bitwise_identical_to_serial_for_every_workload() {
    for kind in ModelKind::ALL {
        let mut batched =
            SessionWorker::new(kind, &BuildConfig::inference().with_seed(SEED).with_batch(BATCH))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let mut serial =
            SessionWorker::new(kind, &BuildConfig::inference().with_seed(SEED).with_batch(1))
                .unwrap_or_else(|e| panic!("{kind}: {e}"));

        let reqs = requests_for(&batched, BATCH);
        let refs: Vec<&Request> = reqs.iter().collect();
        let together = batched.run_batch(&refs).expect("full batch runs");

        // One persistent batch-1 session stepped request by request: its
        // RNG consumes the same stream, in the same order, as the packed
        // batch's row-major sampling.
        for (i, req) in reqs.iter().enumerate() {
            let alone = serial.run_batch(&[req]).expect("single request runs");
            assert!(alone.outputs[0].all_finite(), "{kind}: non-finite output");
            assert_eq!(
                together.outputs[i].data(),
                alone.outputs[0].data(),
                "{kind}: request {i} differs between batch-of-{BATCH} and batch-of-1"
            );
        }
    }
}

#[test]
fn padded_partial_batches_do_not_disturb_real_requests() {
    // 2 requests through a capacity-4 graph: rows beyond the requests are
    // zero padding, and the real rows must match the full serial run.
    for kind in [ModelKind::Alexnet, ModelKind::Memnet, ModelKind::Residual] {
        let mut batched =
            SessionWorker::new(kind, &BuildConfig::inference().with_seed(SEED).with_batch(BATCH))
                .expect("servable");
        let mut serial =
            SessionWorker::new(kind, &BuildConfig::inference().with_seed(SEED).with_batch(1))
                .expect("servable");
        let reqs = requests_for(&batched, 2);
        let refs: Vec<&Request> = reqs.iter().collect();
        let together = batched.run_batch(&refs).expect("partial batch runs");
        assert_eq!(together.outputs.len(), 2);
        for (i, req) in reqs.iter().enumerate() {
            let alone = serial.run_batch(&[req]).expect("single request runs");
            assert_eq!(
                together.outputs[i].data(),
                alone.outputs[0].data(),
                "{kind}: padding leaked into request {i}"
            );
        }
    }
}

#[test]
fn warm_start_accepts_training_checkpoints() {
    // Train a few steps, checkpoint, and restore into a serving replica:
    // training and inference graphs share their variable set, so the
    // bytes survive the round trip exactly.
    let cfg = BuildConfig::training().with_seed(3);
    let mut trained = ModelKind::Memnet.build(&cfg);
    for _ in 0..3 {
        trained.step();
    }
    let mut ck = Vec::new();
    checkpoint::save(trained.session(), &mut ck).expect("saves");

    let mut worker =
        SessionWorker::new(ModelKind::Memnet, &BuildConfig::inference().with_batch(BATCH))
            .expect("servable");
    worker.warm_start(ck.as_slice()).expect("training checkpoint loads into serving graph");

    let mut restored = Vec::new();
    checkpoint::save(worker.workload_mut().session(), &mut restored).expect("saves");
    assert_eq!(ck, restored, "restored serving variables differ from the trained ones");
}

#[test]
fn fault_injected_runs_are_deterministic_for_a_fixed_seed() {
    use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
    use fathom_suite::fathom_serve::{BatchResult, FaultyRunner, ServeError};
    use fathom_suite::fathom_tensor::Tensor;
    use std::sync::Arc;

    /// Fixed service time per batch — the only nondeterminism left is
    /// whatever the fault plan and the loop introduce, which is none.
    struct FixedRunner {
        capacity: usize,
        service_nanos: f64,
    }

    impl BatchRunner for FixedRunner {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
            Ok(BatchResult {
                outputs: reqs.iter().map(|_| Tensor::zeros([1])).collect(),
                service_nanos: self.service_nanos,
                class_nanos: [0.0; 7],
            })
        }
    }

    impl ClusterRunner for FixedRunner {
        fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
            Ok(())
        }
    }

    let run = || {
        let plan = Arc::new(
            FaultPlan::new(0xD37)
                .with(FaultSite::ServeBatch { replica: 0 }, 1, FaultAction::Crash)
                .with(
                    FaultSite::ServeBatch { replica: 1 },
                    2,
                    FaultAction::Stall { nanos: 250_000 },
                ),
        );
        let mut r0 = FaultyRunner::new(
            FixedRunner { capacity: 2, service_nanos: 1_000_000.0 },
            plan.clone(),
            0,
        );
        let mut r1 = FaultyRunner::new(
            FixedRunner { capacity: 2, service_nanos: 1_000_000.0 },
            plan,
            1,
        );
        let cfg = ClusterConfig { duration_nanos: 5_000_000, ..one_class(2) };
        serve_one_shard(vec![&mut r0, &mut r1], Box::new(|_rng, _id| Vec::new()), 4_000.0, &cfg)
    };

    let first = run();
    let second = run();
    assert!(first.recovery.crashes >= 1, "the planned crash must fire: {:?}", first.recovery);
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "the same fault-plan seed must reproduce the report bitwise"
    );
    // The report of one model on one shard: its counts, makespan,
    // latency, batches and recovery counters, with the queue's depth
    // beside it.
    assert_eq!(first.models[0].max_queue_depth, 17);
    assert_eq!(
        first.to_json(),
        r#"{
  "batching": "continuous",
  "max_batch": 2,
  "issued": 25,
  "completed": 25,
  "shed": 0,
  "timed_out": 0,
  "spilled": 0,
  "reloads": 0,
  "makespan_ms": 10.266,
  "throughput_rps": 2435.178,
  "classes": [
    {"class": "interactive", "issued": 0, "completed": 0, "shed": 0, "timed_out": 0, "latency_ms": {"p50": 0.000, "p95": 0.000, "p99": 0.000, "mean": 0.000, "max": 0.000}},
    {"class": "standard", "issued": 25, "completed": 25, "shed": 0, "timed_out": 0, "latency_ms": {"p50": 4.083, "p95": 5.278, "p99": 5.293, "mean": 3.701, "max": 5.293}},
    {"class": "batch", "issued": 0, "completed": 0, "shed": 0, "timed_out": 0, "latency_ms": {"p50": 0.000, "p95": 0.000, "p99": 0.000, "mean": 0.000, "max": 0.000}}
  ],
  "models": [
    {"model": "one", "shards": 1, "replicas": 2, "issued": 25, "completed": 25, "shed": 0, "timed_out": 0, "spilled": 0, "reloads": 0, "batches": 14, "mean_batch": 1.79,
      "classes": [
        {"class": "interactive", "issued": 0, "completed": 0, "shed": 0, "timed_out": 0, "latency_ms": {"p50": 0.000, "p95": 0.000, "p99": 0.000, "mean": 0.000, "max": 0.000}},
        {"class": "standard", "issued": 25, "completed": 25, "shed": 0, "timed_out": 0, "latency_ms": {"p50": 4.083, "p95": 5.278, "p99": 5.293, "mean": 3.701, "max": 5.293}},
        {"class": "batch", "issued": 0, "completed": 0, "shed": 0, "timed_out": 0, "latency_ms": {"p50": 0.000, "p95": 0.000, "p99": 0.000, "mean": 0.000, "max": 0.000}}
      ]}
  ],
  "recovery": {"crashes": 1, "retried": 2, "dropped": 0, "quarantines": 1, "recoveries": 1, "dead_replicas": 0}
}
"#
    );
}

#[test]
fn a_replica_crash_mid_run_loses_no_accepted_requests() {
    use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
    use fathom_suite::fathom_serve::FaultyRunner;
    use std::sync::Arc;

    let build = BuildConfig::inference().with_seed(SEED).with_batch(2);
    let w0 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let w1 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let shapes = w0.item_shapes();
    let domains = w0.domains();

    // Replica 0 crashes on its first batch; the supervisor must retry
    // that batch on replica 1 (or on replica 0 once recovered) so the
    // closed loop still resolves every request it issued. Dispatch
    // visits idle replicas in index order, so at t = 0 replica 0 takes
    // the first batch whatever the service times are.
    let plan = Arc::new(FaultPlan::new(9).with(
        FaultSite::ServeBatch { replica: 0 },
        0,
        FaultAction::Crash,
    ));
    let mut r0 = FaultyRunner::new(w0, plan.clone(), 0);
    let mut r1 = FaultyRunner::new(w1, plan, 1);
    let cfg = ClusterConfig {
        closed_loop: Some(ClosedLoop { clients: 3, requests: 10 }),
        ..one_class(2)
    };
    let synth = Box::new(move |rng: &mut Rng, _| synth_inputs(&shapes, &domains, rng));
    let report = serve_one_shard(vec![&mut r0, &mut r1], synth, 0.0, &cfg);

    assert!(report.recovery.crashes >= 1, "the planned crash must fire: {:?}", report.recovery);
    assert!(report.recovery.retried >= 1, "the crashed batch must be requeued");
    assert_eq!(report.issued(), 10);
    assert_eq!(report.completed(), 10, "no accepted request may be lost to the crash");
    assert_eq!(report.shed(), 0);
    assert_eq!(report.timed_out(), 0);
}

#[test]
fn engine_resolves_every_closed_loop_request_with_a_real_worker() {
    let mut worker =
        SessionWorker::new(ModelKind::Memnet, &BuildConfig::inference().with_batch(2))
            .expect("servable");
    let shapes = worker.item_shapes();
    let domains = worker.domains();
    let cfg = ClusterConfig {
        closed_loop: Some(ClosedLoop { clients: 3, requests: 12 }),
        ..one_class(2)
    };
    let synth = Box::new(move |rng: &mut Rng, _| synth_inputs(&shapes, &domains, rng));
    let report = serve_one_shard(vec![&mut worker], synth, 0.0, &cfg);
    assert_eq!(report.issued(), 12);
    assert_eq!(report.completed(), 12, "closed loop with no deadline resolves everything");
    assert_eq!(report.shed(), 0);
    assert_eq!(report.timed_out(), 0);
    assert_eq!(report.latency().count(), 12);
    let model = &report.models[0];
    assert!(model.batches >= 6, "12 requests at 2 a batch: {}", model.batches);
    assert!(model.mean_batch() <= 2.0);
}

#[test]
fn cluster_crash_mid_overload_spares_the_interactive_class() {
    use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
    use fathom_suite::fathom_serve::{
        serve_cluster, BatchResult, ClusterConfig, ClusterRunner, FaultyRunner, ModelSpec,
        ServeError, SloMix,
    };
    use fathom_suite::fathom_tensor::{Rng, Tensor};
    use std::sync::Arc;

    /// Fixed-service replica so the overload scenario is exactly
    /// reproducible in virtual time.
    struct FixedRunner {
        capacity: usize,
        service_nanos: f64,
    }

    impl BatchRunner for FixedRunner {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
            Ok(BatchResult {
                outputs: reqs.iter().map(|_| Tensor::zeros([1])).collect(),
                service_nanos: self.service_nanos,
                class_nanos: [0.0; 7],
            })
        }
    }

    impl ClusterRunner for FixedRunner {
        fn reload(&mut self, _checkpoint: &[u8]) -> Result<(), ServeError> {
            Ok(())
        }
    }

    // Two shards of one replica each, 10 ms per batch of 4 -> 800 rps of
    // fleet capacity. Offer 1600 rps (2x overload) with a 30/30/40 mix,
    // and crash shard 0's replica partway through the run. The cost of
    // overload plus the crash must land entirely on the lower classes:
    // every interactive request completes inside its deadline.
    let plan = Arc::new(FaultPlan::new(0xC1A5).with(
        FaultSite::ServeBatch { replica: 0 },
        3,
        FaultAction::Crash,
    ));
    let mut shard0 =
        FaultyRunner::new(FixedRunner { capacity: 4, service_nanos: 10_000_000.0 }, plan, 0);
    let mut shard1 = FixedRunner { capacity: 4, service_nanos: 10_000_000.0 };
    let mut models = vec![ModelSpec {
        name: "fixed".into(),
        shards: vec![vec![&mut shard0], vec![&mut shard1]],
        rps: 1_600.0,
        synth: Box::new(|_rng: &mut Rng, _id| Vec::new()),
    }];
    let cfg = ClusterConfig {
        duration_nanos: 400_000_000,
        mix: SloMix::parse("30,30,40").expect("parses"),
        seed: SEED,
        ..ClusterConfig::new(4)
    };
    let report = serve_cluster(&mut models, &cfg).expect("serves");

    assert!(report.conserved(), "completed + shed + timed_out must equal offered");
    assert!(report.recovery.crashes >= 1, "the planned crash must fire");
    assert!(report.shed() > 0, "2x overload must shed");
    let [interactive, _standard, batch] = &report.per_class;
    assert_eq!(
        interactive.shed + interactive.timed_out,
        0,
        "the highest SLO class must lose nothing: {:?}",
        report.shed_reasons()
    );
    assert!(interactive.completed > 0);
    assert!(
        batch.shed > 0,
        "overload cost falls on the batch class first: {:?}",
        report.shed_reasons()
    );
    let deadline = cfg.slo.deadline(fathom_suite::fathom_serve::SloClass::Interactive)
        .expect("interactive has a deadline") as f64;
    assert!(
        interactive.latency.quantile(1.0) <= deadline,
        "every interactive completion beats its deadline: max {} ns",
        interactive.latency.quantile(1.0)
    );
}

#[test]
fn cluster_hot_reload_with_real_workers_drops_nothing() {
    use fathom_suite::fathom_serve::{
        serve_cluster, BatchResult, ClusterConfig, ClusterRunner, ModelSpec, ReloadPlan,
        ServeError, SloPolicy,
    };

    /// Records served request ids so duplicates across the swap show up.
    struct Recording {
        inner: SessionWorker,
        served: Vec<u64>,
    }

    impl BatchRunner for Recording {
        fn capacity(&self) -> usize {
            self.inner.capacity()
        }

        fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
            self.served.extend(reqs.iter().map(|r| r.id));
            self.inner.run_batch(reqs)
        }

        fn recover(&mut self) -> Result<(), ServeError> {
            self.inner.recover()
        }
    }

    impl ClusterRunner for Recording {
        fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
            self.inner.reload(checkpoint)
        }
    }

    // Train a few steps and checkpoint: these are the weights the fleet
    // hot-swaps to mid-run.
    let mut trained = ModelKind::Memnet.build(&BuildConfig::training().with_seed(11));
    for _ in 0..2 {
        trained.step();
    }
    let mut ck = Vec::new();
    checkpoint::save(trained.session(), &mut ck).expect("saves");
    drop(trained);

    // Two models x two shards of one replica each; only memnet reloads,
    // autoenc rides alongside untouched.
    let build = BuildConfig::inference().with_seed(SEED).with_batch(BATCH);
    let replica = |kind| Recording {
        inner: SessionWorker::new(kind, &build).expect("servable"),
        served: Vec::new(),
    };
    let kinds = [ModelKind::Memnet, ModelKind::Autoenc];
    let mut fleet = kinds.map(|kind| [replica(kind), replica(kind)]);
    let mut models: Vec<ModelSpec<'_>> = kinds
        .iter()
        .zip(fleet.iter_mut())
        .map(|(kind, shards)| {
            let (shapes, domains) = (shards[0].inner.item_shapes(), shards[0].inner.domains());
            ModelSpec {
                name: kind.name().into(),
                shards: shards.iter_mut().map(|w| vec![w as &mut dyn ClusterRunner]).collect(),
                rps: 300.0,
                synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
            }
        })
        .collect();
    let cfg = ClusterConfig {
        duration_nanos: 300_000_000,
        // No deadlines and an effectively unbounded queue: with real
        // (wall-clock) service times the virtual backlog is not
        // controlled, and this test is about the swap, not admission.
        slo: SloPolicy { deadline_nanos: [None, None, None] },
        queue_cap: 100_000,
        seed: SEED,
        reloads: vec![ReloadPlan {
            model: "memnet".into(),
            at_nanos: 100_000_000,
            checkpoint: ck.clone(),
        }],
        ..ClusterConfig::new(BATCH)
    };
    let report = serve_cluster(&mut models, &cfg).expect("serves");
    drop(models);

    assert!(report.conserved());
    assert!(report.issued() > 60, "Poisson(2 x 300 rps, 0.3 s) issues ~180: {}", report.issued());
    assert_eq!(
        report.shed() + report.timed_out(),
        0,
        "a hot reload must drop nothing: {}",
        report.to_json()
    );
    assert_eq!(report.completed(), report.issued());
    assert!(report.per_class.iter().all(|c| c.issued > 0), "every SLO class must see traffic");
    let [memnet, autoenc] = &report.models[..] else { panic!("two models reported") };
    assert_eq!(memnet.reloads, 2, "both memnet replicas swap");
    assert_eq!(autoenc.reloads, 0, "a reload of one model must not touch another");

    // Every shard served, and no request was served twice across the swap.
    let replicas = fleet.iter().flatten();
    assert!(replicas.clone().all(|w| !w.served.is_empty()), "every shard must serve batches");
    let mut served: Vec<u64> = replicas.flat_map(|w| w.served.iter().copied()).collect();
    assert_eq!(served.len() as u64, report.completed());
    served.sort_unstable();
    served.dedup();
    assert_eq!(served.len() as u64, report.completed(), "a request must not be served twice");

    // The swap really happened: both memnet replicas now hold the trained
    // variables (reload also resets the recovery baseline).
    for w in &mut fleet[0] {
        let mut after = Vec::new();
        checkpoint::save(w.inner.workload_mut().session(), &mut after).expect("saves");
        assert_eq!(after, ck, "replica variables must match the reloaded checkpoint");
    }
}

#[test]
fn cluster_routes_warm_started_replicas_and_hot_swaps_a_fleet_to_trained_weights() {
    use fathom_suite::fathom_serve::{
        serve_cluster, ClusterConfig, ModelSpec, ReloadPlan, SloPolicy,
    };

    // Train a few steps and checkpoint: these are the weights one fleet
    // serves from the start and the other hot-swaps to.
    let mut trained = ModelKind::Memnet.build(&BuildConfig::training().with_seed(11));
    for _ in 0..2 {
        trained.step();
    }
    let mut ck = Vec::new();
    checkpoint::save(trained.session(), &mut ck).expect("saves");
    drop(trained);
    let variables = |w: &mut SessionWorker| {
        let mut out = Vec::new();
        checkpoint::save(w.workload_mut().session(), &mut out).expect("saves");
        out
    };

    // Fleet A serves the trained weights from the start (both shards
    // warm-started from the checkpoint). Fleet B starts from its own
    // initialisation and is hot-swapped to the trained weights mid-run.
    let build = BuildConfig::inference().with_seed(SEED).with_batch(BATCH);
    let mut w0 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let mut w1 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    w0.warm_start(ck.as_slice()).expect("warm starts");
    w1.warm_start(ck.as_slice()).expect("warm starts");
    assert!(variables(&mut w0) == ck && variables(&mut w1) == ck);
    let mut f0 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    assert!(variables(&mut f0) != ck, "a fresh replica must not already hold the trained weights");

    let shapes = w0.item_shapes();
    let domains = w0.domains();
    let (shapes2, domains2) = (shapes.clone(), domains.clone());
    let mut models = vec![
        ModelSpec {
            name: "memnet-trained".into(),
            shards: vec![vec![&mut w0], vec![&mut w1]],
            rps: 200.0,
            synth: Box::new(move |rng, _id| synth_inputs(&shapes, &domains, rng)),
        },
        ModelSpec {
            name: "memnet".into(),
            shards: vec![vec![&mut f0]],
            rps: 100.0,
            synth: Box::new(move |rng, _id| synth_inputs(&shapes2, &domains2, rng)),
        },
    ];
    let cfg = ClusterConfig {
        duration_nanos: 300_000_000,
        // No deadlines and an effectively unbounded queue: real service
        // times make the virtual backlog uncontrolled, and this test is
        // about routing and the swap, not admission.
        slo: SloPolicy { deadline_nanos: [None, None, None] },
        queue_cap: 100_000,
        seed: SEED,
        reloads: vec![ReloadPlan {
            model: "memnet".into(),
            at_nanos: 100_000_000,
            checkpoint: ck.clone(),
        }],
        ..ClusterConfig::new(BATCH)
    };
    let report = serve_cluster(&mut models, &cfg).expect("serves");
    drop(models);

    assert!(report.conserved());
    assert_eq!(report.shed() + report.timed_out(), 0, "nothing dropped: {}", report.to_json());
    assert_eq!(report.completed(), report.issued());
    for m in &report.models {
        assert!(m.completed() > 0, "model {} served nothing", m.model);
    }
    assert_eq!(report.reloads(), 1, "the fresh replica swaps once");

    // The warm-started fleet kept its weights, and the hot swap really
    // moved the fresh fleet onto the trained ones.
    assert!(
        variables(&mut w0) == ck && variables(&mut w1) == ck,
        "warm-started shards keep their weights"
    );
    assert!(variables(&mut f0) == ck, "the reload must install the checkpoint's variables");
}

/// The batcher's `max_batch` in serving: the extents below it that a
/// replica adds plans at are 1 and 2.
const MAX_BATCH: usize = 8;

#[test]
fn every_batch_size_matches_the_padded_graph_and_serving_alone() {
    use fathom_suite::fathom_dataflow::batch;

    // autoenc samples noise per row, so its rows depend on the stream's
    // position; `short_batches_share_the_replicas_noise_stream` covers it.
    for kind in ModelKind::ALL.into_iter().filter(|k| *k != ModelKind::Autoenc) {
        let cfg = BuildConfig::inference().with_seed(SEED);
        let mut replica = SessionWorker::new(kind, &cfg.clone().with_batch(MAX_BATCH))
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let mut alone = SessionWorker::new(kind, &cfg.clone().with_batch(1)).expect("servable");
        // The padded path: every batch packed to `max_batch` in one graph.
        let mut padded = kind.build(&cfg.clone().with_batch(MAX_BATCH));
        let spec = padded.batch_spec().expect("servable");
        if kind == ModelKind::Speech {
            assert_eq!(spec.inputs[0].batch_axis, 1, "speech packs time-major, on axis 1");
        }

        let reqs = requests_for(&replica, MAX_BATCH);
        let singles: Vec<_> = reqs
            .iter()
            .map(|r| alone.run_batch(&[r]).expect("runs alone").outputs.remove(0))
            .collect();
        for n in 1..=MAX_BATCH {
            let refs: Vec<&Request> = reqs[..n].iter().collect();
            let served = replica.run_batch(&refs).expect("batch runs");
            let feeds: Vec<_> = spec
                .inputs
                .iter()
                .enumerate()
                .map(|(j, port)| {
                    let items: Vec<_> = refs.iter().map(|r| &r.inputs[j]).collect();
                    (port.node, batch::pack(&items, port.batch_axis, MAX_BATCH))
                })
                .collect();
            let fetched = padded.session_mut().run1(spec.output.node, &feeds).expect("padded runs");
            let rows = batch::split(&fetched, spec.output.batch_axis, n);
            assert_eq!(served.outputs.len(), n);
            for (i, out) in served.outputs.iter().enumerate() {
                let at = format!("{kind}: batch of {n}, request {i}");
                assert_eq!(out.data(), rows[i].data(), "{at} vs the padded graph");
                assert_eq!(out.data(), singles[i].data(), "{at} vs served alone");
            }
        }
    }
}

#[test]
fn short_batches_share_the_replicas_noise_stream() {
    // autoenc draws one noise row per request slot. A batch of 1 and then
    // a batch of 2 on a max_batch-8 replica run on its extent-1 and
    // extent-2 plans, which read the replica's one stream in turn: the
    // rows are those a batch-1 worker draws for the same three requests.
    let cfg = BuildConfig::inference().with_seed(SEED);
    let worker = |batch| SessionWorker::new(ModelKind::Autoenc, &cfg.clone().with_batch(batch));
    let mut replica = worker(MAX_BATCH).expect("servable");
    let mut alone = worker(1).expect("servable");
    let reqs = requests_for(&replica, 3);
    let mut served = replica.run_batch(&[&reqs[0]]).expect("runs").outputs;
    served.extend(replica.run_batch(&[&reqs[1], &reqs[2]]).expect("runs").outputs);
    for (i, req) in reqs.iter().enumerate() {
        let single = alone.run_batch(&[req]).expect("runs alone");
        assert_eq!(served[i].data(), single.outputs[0].data(), "request {i} read other noise");
    }
}

/// A briefly trained `kind`, checkpointed.
fn trained_checkpoint(kind: ModelKind) -> Vec<u8> {
    let mut trained = kind.build(&BuildConfig::training().with_seed(11));
    for _ in 0..2 {
        trained.step();
    }
    let mut ck = Vec::new();
    checkpoint::save(trained.session(), &mut ck).expect("saves");
    ck
}

/// Outputs of batches of 1, 2 and `MAX_BATCH` requests, each batch
/// starting from the first request.
fn short_and_full_batches(worker: &mut SessionWorker, reqs: &[Request]) -> Vec<Vec<f32>> {
    [1, 2, MAX_BATCH]
        .iter()
        .flat_map(|&n| {
            let refs: Vec<&Request> = reqs[..n].iter().collect();
            worker.run_batch(&refs).expect("runs").outputs
        })
        .map(|t| t.data().to_vec())
        .collect()
}

#[test]
fn warm_start_reload_and_recovery_reach_every_plan() {
    // seq2seq carries an LSTM bias made outside `Params`, memnet only
    // `Params` variables.
    for kind in [ModelKind::Memnet, ModelKind::Seq2Seq] {
        let ck = trained_checkpoint(kind);
        let build = BuildConfig::inference().with_batch(MAX_BATCH);
        // The reference is warm-started from another initialization, so a
        // plan left on its own initial weights cannot agree with it.
        let mut reference =
            SessionWorker::new(kind, &build.clone().with_seed(SEED ^ 1)).expect("servable");
        reference.warm_start(ck.as_slice()).expect("warm starts");
        let reqs = requests_for(&reference, MAX_BATCH);
        let want = short_and_full_batches(&mut reference, &reqs);

        let mut warm = SessionWorker::new(kind, &build.clone().with_seed(SEED)).expect("servable");
        let initial = short_and_full_batches(&mut warm, &reqs);
        assert_ne!(initial, want, "{kind}: the trained weights must change the outputs");
        warm.warm_start(ck.as_slice()).expect("warm starts");
        assert_eq!(short_and_full_batches(&mut warm, &reqs), want, "{kind}: after warm_start");
        warm.recover().expect("recovers");
        assert_eq!(short_and_full_batches(&mut warm, &reqs), want, "{kind}: after recover");

        let mut reloaded = SessionWorker::new(kind, &build.with_seed(SEED)).expect("servable");
        reloaded.reload(&ck).expect("reloads");
        assert_eq!(short_and_full_batches(&mut reloaded, &reqs), want, "{kind}: after reload");

        // A truncated checkpoint is refused and every plan keeps serving
        // the weights it had.
        assert!(reloaded.warm_start(&ck[..ck.len() / 2]).is_err(), "{kind}: truncation loads");
        assert_eq!(short_and_full_batches(&mut reloaded, &reqs), want, "{kind}: after truncation");
    }
}
