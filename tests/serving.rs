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
    serve, synth_inputs, BatchRunner, LoadModel, Request, ServeConfig, SessionWorker,
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
    use fathom_suite::fathom_serve::{BatchResult, FaultyRunner, LoadModel, ServeError};
    use fathom_suite::fathom_tensor::Tensor;
    use std::sync::Arc;

    /// Fixed service time per batch — the only nondeterminism left is
    /// whatever the fault plan and the engine introduce, which is none.
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
        let mut runners: Vec<&mut dyn BatchRunner> = vec![&mut r0, &mut r1];
        let cfg = ServeConfig { queue_cap: 64, ..ServeConfig::new(2) };
        let load = LoadModel::Open { rps: 4_000.0, duration_nanos: 5_000_000 };
        serve(&mut runners, &cfg, &load, &mut |_rng, _id| Vec::new(), "fixed").expect("serves")
    };

    let first = run();
    let second = run();
    assert!(first.recovery.crashes >= 1, "the planned crash must fire: {:?}", first.recovery);
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "the same fault-plan seed must reproduce the report bitwise"
    );
    // Recorded at the parent of PR 18, where `serve` still ran its own
    // event loop: the 1 x 1 x N case of the cluster loop reproduces it.
    assert_eq!(
        first.to_json(),
        r#"{
  "workload": "fixed",
  "max_batch": 2,
  "replicas": 2,
  "issued": 16,
  "completed": 16,
  "shed": 0,
  "timed_out": 0,
  "makespan_ms": 7.403,
  "throughput_rps": 2161.303,
  "latency_ms": {"p50": 3.074, "p95": 4.827, "p99": 4.827, "mean": 2.880, "max": 4.827},
  "queue_depth": {"max": 8, "samples": 16},
  "batches": {"count": 8, "mean_size": 2.000},
  "recovery": {"crashes": 1, "retried": 2, "dropped": 0, "quarantines": 1, "recoveries": 1, "dead_replicas": 0},
  "class_nanos": {"A": 0, "B": 0, "C": 0, "D": 0, "E": 0, "F": 0, "G": 0}
}
"#
    );
}

#[test]
fn a_replica_crash_mid_run_loses_no_accepted_requests() {
    use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
    use fathom_suite::fathom_serve::{FaultyRunner, LoadModel};
    use std::sync::Arc;

    let build = BuildConfig::inference().with_seed(SEED).with_batch(2);
    let w0 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let w1 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let shapes = w0.item_shapes();
    let domains = w0.domains();

    // Replica 0 crashes on its second batch; the supervisor must retry
    // that batch on replica 1 (or on replica 0 once recovered) so the
    // closed loop still resolves every request it issued.
    let plan = Arc::new(FaultPlan::new(9).with(
        FaultSite::ServeBatch { replica: 0 },
        1,
        FaultAction::Crash,
    ));
    let mut r0 = FaultyRunner::new(w0, plan.clone(), 0);
    let mut r1 = FaultyRunner::new(w1, plan, 1);
    let mut runners: Vec<&mut dyn BatchRunner> = vec![&mut r0, &mut r1];
    let cfg = ServeConfig { queue_cap: 64, ..ServeConfig::new(2) };
    let load = LoadModel::Closed { clients: 3, requests: 10 };
    let report = serve(
        &mut runners,
        &cfg,
        &load,
        &mut |rng, _| synth_inputs(&shapes, &domains, rng),
        "memnet",
    )
    .expect("serves");

    assert!(report.recovery.crashes >= 1, "the planned crash must fire: {:?}", report.recovery);
    assert!(report.recovery.retried >= 1, "the crashed batch must be requeued");
    assert_eq!(report.issued, 10);
    assert_eq!(report.completed, 10, "no accepted request may be lost to the crash");
    assert_eq!(report.shed, 0);
    assert_eq!(report.timed_out, 0);
}

#[test]
fn engine_resolves_every_closed_loop_request_with_a_real_worker() {
    let mut worker =
        SessionWorker::new(ModelKind::Memnet, &BuildConfig::inference().with_batch(2))
            .expect("servable");
    let shapes = worker.item_shapes();
    let domains = worker.domains();
    let cfg = ServeConfig { queue_cap: 64, ..ServeConfig::new(2) };
    let load = LoadModel::Closed { clients: 3, requests: 12 };
    let mut runners: Vec<&mut dyn BatchRunner> = vec![&mut worker];
    let report = serve(
        &mut runners,
        &cfg,
        &load,
        &mut |rng, _| synth_inputs(&shapes, &domains, rng),
        "memnet",
    )
    .expect("serves");
    assert_eq!(report.issued, 12);
    assert_eq!(report.completed, 12, "closed loop with no deadline resolves everything");
    assert_eq!(report.shed, 0);
    assert_eq!(report.timed_out, 0);
    assert_eq!(report.latency.count(), 12);
    assert!(report.batches() >= 6, "12 requests at 2 a batch: {}", report.batches());
    assert!(report.mean_batch_size() <= 2.0);
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
fn cluster_routes_quantized_replicas_and_hot_swaps_a_fleet_to_int8() {
    use fathom_suite::fathom_serve::{
        serve_cluster, ClusterConfig, ModelSpec, ReloadPlan, SloPolicy,
    };

    // Calibrate one worker and checkpoint it: the stream carries the
    // per-channel activation ranges, so it describes an int8 deployment
    // any replica can restore.
    let build = BuildConfig::inference().with_seed(SEED).with_batch(BATCH);
    let mut donor = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let mut calib_rng = Rng::seeded(0xCA11B);
    donor.quantize(2, &mut calib_rng).expect("memnet quantizes");
    let mut int8_ck = Vec::new();
    checkpoint::save(donor.workload_mut().session(), &mut int8_ck).expect("saves");
    drop(donor);

    // Fleet A serves int8 from the start (both shards warm-started from
    // the calibrated checkpoint). Fleet B starts f32 and is hot-swapped
    // to the int8 deployment mid-run.
    let mut q0 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    let mut q1 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    q0.warm_start(int8_ck.as_slice()).expect("warm starts");
    q1.warm_start(int8_ck.as_slice()).expect("warm starts");
    assert!(q0.is_quantized() && q1.is_quantized());
    let mut f0 = SessionWorker::new(ModelKind::Memnet, &build).expect("servable");
    assert!(!f0.is_quantized());

    let shapes = q0.item_shapes();
    let domains = q0.domains();
    let (shapes2, domains2) = (shapes.clone(), domains.clone());
    let mut models = vec![
        ModelSpec {
            name: "memnet-int8".into(),
            shards: vec![vec![&mut q0], vec![&mut q1]],
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
            checkpoint: int8_ck,
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
    assert_eq!(report.reloads(), 1, "the f32 replica swaps once");

    // The quantized fleet stayed quantized, and the hot swap really
    // moved the f32 fleet onto the int8 plan.
    assert!(q0.is_quantized() && q1.is_quantized(), "int8 shards must stay quantized");
    assert!(f0.is_quantized(), "the reload must re-quantize from the persisted ranges");
}
