//! The serving event loop: many models behind one front door, in
//! virtual time.
//!
//! This module holds the crate's one event loop. It answers the
//! batching question ("how do requests for *this* graph coalesce") and
//! the fleet-level ones production serving hinges on — which shard takes
//! a request, who gets shed when the fleet is saturated, and how a model
//! is swapped under load without dropping anything. Concretely:
//!
//! * **Sharded routing** — each model owns a group of shards (each
//!   shard a set of replicas sharing one queue). A [`Router`] places
//!   every request by consistent hashing with a load-aware spill
//!   override, so keys keep affinity until a shard runs hot.
//! * **SLO classes** — every request carries an [`SloClass`]
//!   (`Interactive`/`Standard`/`Batch`) with a per-class deadline.
//!   Admission is deadline-aware: a request whose deadline the current
//!   backlog makes unmeetable is shed on arrival
//!   (`deadline_infeasible`) instead of wasting queue space, and when a
//!   queue is full a higher-class arrival evicts the youngest
//!   lowest-class occupant (`priority_evicted`) rather than being
//!   refused. Dispatch serves classes strictly by priority.
//! * **Batching** — under [`BatchPolicy::Continuous`] a replica that
//!   frees up immediately takes whatever is queued (up to `max_batch`),
//!   so newly arrived requests join the very next batch.
//!   [`BatchPolicy::FixedRound`] runs pack/run/split rounds: wait for a
//!   full batch, for the oldest request to have waited `max_delay`, or
//!   for arrivals to drain. `BENCH_serve.json`'s cluster scenario runs
//!   both.
//! * **Supervision** — a replica that fails a batch is quarantined with
//!   exponential backoff and rebuilt via [`BatchRunner::recover`]; its
//!   batch re-queues at the front for a healthy replica, each request
//!   within a retry budget; replicas that keep failing are retired.
//! * **Hot reload** — a [`ReloadPlan`] swaps a model's weights from a
//!   v2 checkpoint at a virtual time, rolling: one replica per shard at
//!   a time drains (finishes its in-flight batch), swaps via
//!   [`ClusterRunner::reload`], and rejoins. Queued work is never
//!   dropped; it is served by the not-currently-swapping replicas and
//!   replayed onto the reloaded ones.
//!
//! Two public entries feed the loop. [`serve_cluster`] lays out one
//! open-loop Poisson trace per model. [`serve`](crate::engine::serve)
//! is the 1 model x 1 shard x N replica case — fixed rounds, one SLO
//! class, no spill, no reloads — and the only caller with a closed
//! loop, where each resolved request lets a client issue its next one.
//!
//! Time is *virtual*: arrivals come from a seeded process and each batch
//! advances the clock by its measured (or, in tests, injected) service
//! time. Real graph execution happens inside
//! [`BatchRunner::run_batch`], but the queueing dynamics are a
//! deterministic discrete-event simulation: the same seed and runner
//! behavior reproduce the identical [`ClusterReport`], which is what
//! lets `tests/serving.rs` assert exact conservation and zero-loss
//! properties under injected crashes without ever sleeping.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use fathom_tensor::{Rng, Tensor};

use fathom_dataflow::{Json, RuntimeCounters};

use crate::engine::RecoveryPolicy;
use crate::metrics::{LatencyHistogram, RecoveryCounters, ShedBreakdown};
use crate::router::Router;
use crate::slo::{SloClass, SloMix, SloPolicy};
use crate::worker::{BatchRunner, Request, ServeError, SessionWorker};

/// A replica that can additionally hot-swap its weights from a
/// checkpoint byte stream — the contract the cluster's reload machinery
/// needs on top of [`BatchRunner`].
pub trait ClusterRunner: BatchRunner {
    /// Replaces the served weights with `checkpoint` (format v2 bytes).
    /// Called only while the replica is drained (no batch in flight).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the checkpoint is invalid for the
    /// replica's graph; the supervisor then quarantines the replica.
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError>;
}

impl ClusterRunner for SessionWorker {
    /// Swapping a `SessionWorker` is a `warm_start`: load the v2
    /// checkpoint and make it the new recovery baseline, so a replica
    /// crashed *after* a reload recovers into the reloaded weights.
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
        self.warm_start(checkpoint)
    }
}

/// How replicas form batches from their shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// A freed replica immediately takes up to `max_batch` queued
    /// requests — arrivals join the next batch as soon as capacity
    /// exists.
    Continuous,
    /// Pack/run/split rounds: dispatch only once the queue holds a full
    /// batch, the oldest request has waited `max_delay`, or arrivals
    /// have drained. The rule [`serve`](crate::engine::serve) runs under.
    FixedRound {
        /// Longest the oldest queued request may wait before a partial
        /// batch dispatches anyway, virtual nanoseconds.
        max_delay_nanos: u64,
    },
}

/// One scheduled hot model swap.
#[derive(Debug, Clone)]
pub struct ReloadPlan {
    /// Which model's shards swap.
    pub model: String,
    /// Virtual time the rollout begins.
    pub at_nanos: u64,
    /// Checkpoint (format v2) the replicas reload from.
    pub checkpoint: Vec<u8>,
}

/// Cluster-wide batching, admission, and reload parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Most requests coalesced into one session run.
    pub max_batch: usize,
    /// Admission bound per shard queue (all classes together).
    pub queue_cap: usize,
    /// Batch formation policy.
    pub batching: BatchPolicy,
    /// Per-class deadlines.
    pub slo: SloPolicy,
    /// Traffic mix over the classes.
    pub mix: SloMix,
    /// Open-loop arrival window, virtual nanoseconds.
    pub duration_nanos: u64,
    /// Seed for arrivals, class draws, and payload synthesis.
    pub seed: u64,
    /// Supervisor behavior for failed replicas.
    pub recovery: RecoveryPolicy,
    /// Queue-depth gap that triggers load-aware spill off the hashed
    /// shard (`None` = pure consistent hashing).
    pub spill_threshold: Option<usize>,
    /// Virtual time one replica spends swapping during a hot reload.
    pub swap_nanos: u64,
    /// Scheduled hot swaps, any order (applied in `at_nanos` order).
    pub reloads: Vec<ReloadPlan>,
}

impl ClusterConfig {
    /// Continuous batching, a queue of `16 * max_batch` per shard, the
    /// default SLO policy and mix, load-aware spill at `2 * max_batch`,
    /// a 1 ms swap, and no reloads.
    pub fn new(max_batch: usize) -> Self {
        ClusterConfig {
            max_batch,
            queue_cap: 16 * max_batch,
            batching: BatchPolicy::Continuous,
            slo: SloPolicy::default_serving(),
            mix: SloMix::default_mix(),
            duration_nanos: 1_000_000_000,
            seed: 0xC1057E4,
            recovery: RecoveryPolicy::default(),
            spill_threshold: Some(2 * max_batch),
            swap_nanos: 1_000_000,
            reloads: Vec::new(),
        }
    }
}

/// Synthesizes one admitted request's payload from the arrival RNG and
/// the request id.
pub type SynthFn<'a> = Box<dyn FnMut(&mut Rng, u64) -> Vec<Tensor> + 'a>;

/// One model's place in the cluster: its shard groups, offered load,
/// and payload synthesizer.
pub struct ModelSpec<'a> {
    /// Model name (reload plans and the report key off it).
    pub name: String,
    /// `shards[s]` holds the replicas of shard `s`; every shard shares
    /// one queue.
    pub shards: Vec<Vec<&'a mut dyn ClusterRunner>>,
    /// Offered open-loop Poisson rate, requests per second.
    pub rps: f64,
    /// Synthesizes one admitted request's payload.
    pub synth: SynthFn<'a>,
}

/// Per-class accounting, merged across a model's shards (or the whole
/// cluster).
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Requests generated for this class.
    pub issued: u64,
    /// Requests that returned a result.
    pub completed: u64,
    /// Requests shed (admission or replica loss).
    pub shed: u64,
    /// Why they were shed.
    pub shed_reasons: ShedBreakdown,
    /// Queued requests dropped past their class deadline.
    pub timed_out: u64,
    /// End-to-end latency of completed requests.
    pub latency: LatencyHistogram,
}

impl ClassStats {
    /// Counts one shed request; the caller bumps the returned reason.
    fn shed_one(&mut self) -> &mut ShedBreakdown {
        self.shed += 1;
        &mut self.shed_reasons
    }

    /// Folds another class's stats into this one (cross-shard /
    /// cross-model aggregation via [`LatencyHistogram::merge`]).
    pub fn merge(&mut self, other: &ClassStats) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.shed += other.shed;
        self.shed_reasons.merge(&other.shed_reasons);
        self.timed_out += other.timed_out;
        self.latency.merge(&other.latency);
    }
}

/// One model's slice of the cluster report.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Shard groups serving it.
    pub shards: usize,
    /// Total replicas across its shards.
    pub replicas: usize,
    /// Per-class accounting, `SloClass::ALL` order.
    pub per_class: [ClassStats; SloClass::COUNT],
    /// Executed batches.
    pub batches: u64,
    /// Requests carried across those batches.
    pub batched_requests: u64,
    /// Op time by paper class A-G, summed over those batches (zeros
    /// unless the replicas trace).
    pub class_nanos: [f64; 7],
    /// Requests admitted to a queue.
    pub admitted: u64,
    /// Deepest shard queue any admission left behind.
    pub max_queue_depth: usize,
    /// Requests the load-aware rule moved off their hashed shard.
    pub spilled: u64,
    /// Completed replica swaps from hot reloads.
    pub reloads: u64,
}

impl ModelReport {
    /// Requests issued for this model (all classes).
    pub fn issued(&self) -> u64 {
        self.per_class.iter().map(|c| c.issued).sum()
    }

    /// Requests completed for this model (all classes).
    pub fn completed(&self) -> u64 {
        self.per_class.iter().map(|c| c.completed).sum()
    }

    /// Requests shed for this model (all classes).
    pub fn shed(&self) -> u64 {
        self.per_class.iter().map(|c| c.shed).sum()
    }

    /// Requests timed out for this model (all classes).
    pub fn timed_out(&self) -> u64 {
        self.per_class.iter().map(|c| c.timed_out).sum()
    }

    /// Mean carried batch size (0 when no batch ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }
}

/// Everything measured over one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Batch formation policy the run used.
    pub batching: BatchPolicy,
    /// Coalescing limit.
    pub max_batch: usize,
    /// Per-model slices.
    pub models: Vec<ModelReport>,
    /// Per-class accounting merged across every model and shard.
    pub per_class: [ClassStats; SloClass::COUNT],
    /// Virtual time from first arrival to last completion.
    pub makespan_nanos: u64,
    /// Supervisor counters across the whole fleet.
    pub recovery: RecoveryCounters,
    /// Unified-runtime counters folded across every replica session.
    pub runtime: RuntimeCounters,
}

impl ClusterReport {
    /// Requests issued across the cluster.
    pub fn issued(&self) -> u64 {
        self.per_class.iter().map(|c| c.issued).sum()
    }

    /// Requests completed across the cluster.
    pub fn completed(&self) -> u64 {
        self.per_class.iter().map(|c| c.completed).sum()
    }

    /// Requests shed across the cluster.
    pub fn shed(&self) -> u64 {
        self.per_class.iter().map(|c| c.shed).sum()
    }

    /// Requests timed out across the cluster.
    pub fn timed_out(&self) -> u64 {
        self.per_class.iter().map(|c| c.timed_out).sum()
    }

    /// Shed reasons merged across every class.
    pub fn shed_reasons(&self) -> ShedBreakdown {
        let mut total = ShedBreakdown::default();
        for c in &self.per_class {
            total.merge(&c.shed_reasons);
        }
        total
    }

    /// Conservation: every issued request resolved exactly once.
    pub fn conserved(&self) -> bool {
        self.issued() == self.completed() + self.shed() + self.timed_out()
            && self.per_class.iter().all(|c| {
                c.issued == c.completed + c.shed + c.timed_out
                    && c.shed_reasons.total() == c.shed
            })
    }

    /// Completed requests per second of virtual makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_nanos == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1e9 / self.makespan_nanos as f64
    }

    /// Completed replica swaps across every model.
    pub fn reloads(&self) -> u64 {
        self.models.iter().map(|m| m.reloads).sum()
    }

    /// Requests the load-aware rule spilled across every model.
    pub fn spilled(&self) -> u64 {
        self.models.iter().map(|m| m.spilled).sum()
    }

    /// Serializes the report to a JSON document; `shed_reasons`,
    /// `recovery` and `runtime` blocks appear only when non-zero.
    pub fn to_json(&self) -> String {
        let classes = |stats: &[ClassStats; SloClass::COUNT]| {
            Json::arr(SloClass::ALL.iter().map(|class| {
                let c = &stats[class.idx()];
                Json::obj()
                    .with("class", class.name())
                    .with("issued", c.issued)
                    .with("completed", c.completed)
                    .with("shed", c.shed)
                    .with("timed_out", c.timed_out)
                    .with_nondefault("shed_reasons", c.shed_reasons)
                    .with("latency_ms", c.latency.json_ms())
            }))
        };
        let models = self.models.iter().map(|m| {
            Json::obj()
                .with("model", m.model.as_str())
                .with("shards", m.shards)
                .with("replicas", m.replicas)
                .with("issued", m.issued())
                .with("completed", m.completed())
                .with("shed", m.shed())
                .with("timed_out", m.timed_out())
                .with("spilled", m.spilled)
                .with("reloads", m.reloads)
                .with("batches", m.batches)
                .with("mean_batch", Json::fixed(m.mean_batch(), 2))
                .with("classes", classes(&m.per_class))
        });
        let batching = match self.batching {
            BatchPolicy::Continuous => "continuous",
            BatchPolicy::FixedRound { .. } => "fixed_round",
        };
        Json::obj()
            .with("batching", batching)
            .with("max_batch", self.max_batch)
            .with("issued", self.issued())
            .with("completed", self.completed())
            .with("shed", self.shed())
            .with_nondefault("shed_reasons", self.shed_reasons())
            .with("timed_out", self.timed_out())
            .with("spilled", self.spilled())
            .with("reloads", self.reloads())
            .with("makespan_ms", Json::fixed(self.makespan_nanos as f64 / 1e6, 3))
            .with("throughput_rps", Json::fixed(self.throughput_rps(), 3))
            .with("classes", classes(&self.per_class))
            .with("models", Json::arr(models))
            .with_nondefault("recovery", self.recovery)
            .with_nondefault("runtime", self.runtime)
            .render()
    }
}

/// One queued request.
struct QueuedReq {
    /// What a replica runs; held by value so dispatch (and a retry after
    /// a failed batch) passes references instead of copying payloads.
    req: Request,
    class: SloClass,
    /// Absolute deadline, when the class has one.
    deadline: Option<u64>,
    retries: u32,
}

/// One shard's queue (segregated by class so priority dispatch and
/// eviction are O(1)) plus its local accounting.
#[derive(Default)]
struct ShardState {
    queues: [VecDeque<QueuedReq>; SloClass::COUNT],
    /// Latency of requests completed by this shard, per class — merged
    /// into the model report at the end.
    latency: [LatencyHistogram; SloClass::COUNT],
    /// EWMA of observed batch service time, nanoseconds (0 until the
    /// first batch lands); feeds the deadline-infeasibility estimate.
    est_batch_nanos: f64,
}

impl ShardState {
    fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn oldest_arrival(&self) -> Option<u64> {
        self.queues.iter().filter_map(|q| q.front().map(|r| r.req.arrival)).min()
    }

    /// Takes up to `limit` requests, highest class first, FIFO within a
    /// class.
    fn take_batch(&mut self, limit: usize) -> Vec<QueuedReq> {
        let mut batch = Vec::with_capacity(limit.min(self.queued()));
        for class in SloClass::ALL {
            let q = &mut self.queues[class.idx()];
            while batch.len() < limit {
                match q.pop_front() {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
        }
        batch
    }
}

/// A replica's lifecycle inside the supervisor.
#[derive(Debug, Clone, Copy)]
enum RepState {
    Idle,
    /// Executing a batch of `carried` requests until `free_at`.
    Busy { free_at: u64, carried: usize },
    /// Failed; rebuilt (via [`BatchRunner::recover`]) at `until`.
    Quarantined { until: u64 },
    /// Drained and swapping in reloaded weights until `until`.
    Reloading { until: u64 },
    /// Retired after exhausting its restart budget.
    Dead,
}

struct ReplicaState {
    state: RepState,
    restarts: u32,
    /// Number of reload generations this replica has applied.
    applied_gen: usize,
}

/// Applies the recovery policy to one more failure of `rep`: quarantine
/// with exponential backoff while its restart budget lasts, retirement
/// after.
fn failure_verdict(
    rep: &mut ReplicaState,
    policy: &RecoveryPolicy,
    now: u64,
    counters: &mut RecoveryCounters,
) {
    if rep.restarts >= policy.max_restarts {
        counters.dead_replicas += 1;
        rep.state = RepState::Dead;
    } else {
        let backoff = policy.backoff_nanos.saturating_mul(1u64 << rep.restarts.min(32));
        rep.restarts += 1;
        counters.quarantines += 1;
        rep.state = RepState::Quarantined { until: now.saturating_add(backoff.max(1)) };
    }
}

/// The load offered to one run of the loop: the arrivals scheduled so
/// far, earliest first, and — closed loop only — how many more the
/// clients will issue, one per resolved request.
#[derive(Default)]
pub(crate) struct Arrivals {
    /// `(virtual time, model)`. Ties pop in model order; arrivals of one
    /// model at one instant are interchangeable (ids are given out as
    /// they pop).
    due: BinaryHeap<Reverse<(u64, usize)>>,
    /// Requests a closed loop has yet to issue. Zero in an open loop,
    /// whose whole trace is laid out before the run.
    budget: usize,
}

impl Arrivals {
    /// Lays out `model`'s open-loop trace: a Poisson process at `rps`
    /// over `duration_nanos` of virtual time, drawn from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unservable`] unless `rps` is finite and
    /// positive (any other rate never reaches the end of the window).
    pub(crate) fn poisson(
        &mut self,
        rng: &mut Rng,
        model: usize,
        rps: f64,
        duration_nanos: u64,
    ) -> Result<(), ServeError> {
        if !(rps.is_finite() && rps > 0.0) {
            return Err(ServeError::Unservable(format!(
                "open-loop load needs a finite positive rate, got {rps}"
            )));
        }
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival; 1 - uniform() keeps ln() off 0.
            t += -(1.0 - rng.uniform() as f64).ln() / rps * 1e9;
            if t >= duration_nanos as f64 {
                return Ok(());
            }
            self.due.push(Reverse((t as u64, model)));
        }
    }

    /// A closed loop on model 0: `clients` callers issue at time 0 and
    /// again the moment their request resolves, until `requests` have
    /// been issued in total.
    pub(crate) fn closed(clients: usize, requests: usize) -> Self {
        let first = clients.min(requests);
        Arrivals { due: (0..first).map(|_| Reverse((0, 0))).collect(), budget: requests - first }
    }

    /// `n` requests of `model` resolved (completed, shed, timed out or
    /// dropped) at `at`: in a closed loop their clients issue again.
    fn resolved(&mut self, model: usize, at: u64, n: usize) {
        let again = n.min(self.budget);
        self.budget -= again;
        for _ in 0..again {
            self.due.push(Reverse((at, model)));
        }
    }
}

/// Runs one cluster experiment: offers each model's open-loop load to
/// its shard group under `cfg`, routing through consistent hashing with
/// load-aware spill, admitting by SLO class, and applying any scheduled
/// hot reloads. Returns when every admitted request has resolved.
///
/// A runner failure does not abort the run: a crashed batch requeues
/// (front of its class queues) with per-request retry budgets, the
/// replica quarantines with exponential backoff and recovers via
/// [`BatchRunner::recover`], and a shard whose replicas all die has its
/// queue re-routed to surviving shards (or shed as `replica_loss` when
/// the whole model is dead). Conservation holds per class:
/// `issued == completed + shed + timed_out`.
///
/// # Errors
///
/// Returns [`ServeError::Unservable`] on an empty or zero-capacity
/// fleet or a rate that is not finite and positive, and
/// [`ServeError::Fault`] if the event loop ever stalls (a bug in the
/// loop, not a replica failure).
pub fn serve_cluster(
    models: &mut [ModelSpec<'_>],
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    // One Poisson trace per model; the heap merges them into one
    // deterministic timeline.
    let mut arrivals = Arrivals::default();
    for (m, spec) in models.iter().enumerate() {
        let mut rng = Rng::seeded(cfg.seed ^ (0x9E37_79B9 + m as u64));
        arrivals.poisson(&mut rng, m, spec.rps, cfg.duration_nanos)?;
    }
    run(models, cfg, arrivals, Rng::seeded(cfg.seed))
}

/// The event loop under [`serve_cluster`] and
/// [`serve`](crate::engine::serve): serves `arrivals` (which replace
/// `ModelSpec::rps` and `cfg.duration_nanos`) and draws request classes
/// and payloads from `rng`.
pub(crate) fn run(
    models: &mut [ModelSpec<'_>],
    cfg: &ClusterConfig,
    mut arrivals: Arrivals,
    mut rng: Rng,
) -> Result<ClusterReport, ServeError> {
    if models.is_empty() {
        return Err(ServeError::Unservable("cluster needs at least one model".into()));
    }
    let mut max_batch = vec![0usize; models.len()];
    for (m, spec) in models.iter().enumerate() {
        if spec.shards.is_empty() || spec.shards.iter().any(|s| s.is_empty()) {
            return Err(ServeError::Unservable(format!(
                "model {} needs at least one replica in every shard",
                spec.name
            )));
        }
        let cap_floor =
            spec.shards.iter().flatten().map(|r| r.capacity()).min().unwrap_or(0);
        max_batch[m] = cfg.max_batch.min(cap_floor);
        if max_batch[m] == 0 {
            return Err(ServeError::Unservable(format!(
                "model {}: max_batch and every replica capacity must be at least 1",
                spec.name
            )));
        }
    }

    let routers: Vec<Router> = models
        .iter()
        .enumerate()
        .map(|(m, spec)| {
            Router::new(spec.shards.len(), cfg.seed ^ (m as u64) << 16, cfg.spill_threshold)
        })
        .collect();
    let mut shards: Vec<Vec<ShardState>> =
        models.iter().map(|s| (0..s.shards.len()).map(|_| ShardState::default()).collect()).collect();
    let mut reps: Vec<Vec<Vec<ReplicaState>>> = models
        .iter()
        .map(|s| {
            s.shards
                .iter()
                .map(|shard| {
                    shard
                        .iter()
                        .map(|_| ReplicaState { state: RepState::Idle, restarts: 0, applied_gen: 0 })
                        .collect()
                })
                .collect()
        })
        .collect();
    // Reload schedule per model, sorted by time; `gen` below counts how
    // many of a model's plans have come due.
    let reload_plans: Vec<Vec<&ReloadPlan>> = models
        .iter()
        .map(|spec| {
            let mut plans: Vec<&ReloadPlan> =
                cfg.reloads.iter().filter(|p| p.model == spec.name).collect();
            plans.sort_by_key(|p| p.at_nanos);
            plans
        })
        .collect();

    let mut report = ClusterReport {
        batching: cfg.batching,
        max_batch: cfg.max_batch,
        models: models
            .iter()
            .map(|spec| ModelReport {
                model: spec.name.clone(),
                shards: spec.shards.len(),
                replicas: spec.shards.iter().map(|s| s.len()).sum(),
                per_class: Default::default(),
                batches: 0,
                batched_requests: 0,
                class_nanos: [0.0; 7],
                admitted: 0,
                max_queue_depth: 0,
                spilled: 0,
                reloads: 0,
            })
            .collect(),
        per_class: Default::default(),
        makespan_nanos: 0,
        recovery: RecoveryCounters::default(),
        runtime: RuntimeCounters::default(),
    };

    // Session counters are cumulative; the report carries this run's
    // delta, folded across the fleet after the event loop drains.
    let runtime_base: Vec<Vec<Vec<RuntimeCounters>>> = models
        .iter()
        .map(|spec| {
            spec.shards
                .iter()
                .map(|shard| shard.iter().map(|r| r.runtime_counters()).collect())
                .collect()
        })
        .collect();

    let mut now = 0u64;
    let mut next_id = 0u64;

    loop {
        // 1. Completions (each resolved request lets a closed-loop
        // client issue its next one), quarantine expiry, reload
        // completion.
        for (m, spec) in models.iter_mut().enumerate() {
            for (s, shard) in spec.shards.iter_mut().enumerate() {
                for (r, runner) in shard.iter_mut().enumerate() {
                    let rep = &mut reps[m][s][r];
                    match rep.state {
                        RepState::Busy { free_at, carried } if free_at <= now => {
                            rep.state = RepState::Idle;
                            arrivals.resolved(m, now, carried);
                        }
                        RepState::Reloading { until } if until <= now => {
                            rep.state = RepState::Idle;
                        }
                        RepState::Quarantined { until } if until <= now => {
                            match runner.recover() {
                                // A replica rebuilt from its baseline may
                                // predate a reload that rolled out while
                                // it was down; step 2 catches it up.
                                Ok(()) => {
                                    report.recovery.recoveries += 1;
                                    rep.state = RepState::Idle;
                                }
                                Err(_) => {
                                    failure_verdict(rep, &cfg.recovery, now, &mut report.recovery)
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        // 2. Hot reloads: roll one replica per shard at a time through
        // the swap. A replica is only taken when Idle, so in-flight
        // batches always finish and queued work keeps flowing through
        // the shard's other replicas.
        for (m, spec) in models.iter_mut().enumerate() {
            let gen = reload_plans[m].iter().filter(|p| p.at_nanos <= now).count();
            if gen == 0 {
                continue;
            }
            let checkpoint = &reload_plans[m][gen - 1].checkpoint;
            for (s, shard) in spec.shards.iter_mut().enumerate() {
                let swapping = reps[m][s]
                    .iter()
                    .any(|rep| matches!(rep.state, RepState::Reloading { .. }));
                if swapping {
                    continue;
                }
                for (r, runner) in shard.iter_mut().enumerate() {
                    let rep = &mut reps[m][s][r];
                    if rep.applied_gen >= gen || !matches!(rep.state, RepState::Idle) {
                        continue;
                    }
                    match runner.reload(checkpoint) {
                        Ok(()) => {
                            rep.applied_gen = gen;
                            rep.state = RepState::Reloading {
                                until: now.saturating_add(cfg.swap_nanos.max(1)),
                            };
                            report.models[m].reloads += 1;
                        }
                        Err(_) => {
                            report.recovery.crashes += 1;
                            failure_verdict(rep, &cfg.recovery, now, &mut report.recovery);
                        }
                    }
                    break; // one replica per shard per rollout step
                }
            }
        }

        // 3. Arrivals due now: route, then admit or shed. A shed
        // closed-loop client tries again at once.
        while arrivals.due.peek().is_some_and(|Reverse((t, _))| *t <= now) {
            let Some(Reverse((at, m))) = arrivals.due.pop() else { break };
            let id = next_id;
            next_id += 1;
            let class = cfg.mix.draw(&mut rng);
            let model = &mut report.models[m];
            model.per_class[class.idx()].issued += 1;

            let loads: Vec<usize> = shards[m]
                .iter()
                .enumerate()
                .map(|(s, state)| {
                    if reps[m][s].iter().all(|rep| matches!(rep.state, RepState::Dead)) {
                        usize::MAX
                    } else {
                        state.queued()
                    }
                })
                .collect();
            if loads.iter().all(|&l| l == usize::MAX) {
                // Whole model dead: nothing can ever serve this.
                model.per_class[class.idx()].shed_one().replica_loss += 1;
                arrivals.resolved(m, at, 1);
                continue;
            }
            let placement = routers[m].place(id, &loads);
            if placement.spilled {
                model.spilled += 1;
            }
            let s = placement.shard;

            // Deadline-aware admission: refuse on arrival when the
            // backlog at this class's priority already makes the
            // deadline unmeetable (estimate from the shard's observed
            // batch service time). The one place deadlines are formed;
            // saturating, so an effectively infinite one stays in the
            // future instead of wrapping into the past.
            let deadline = cfg.slo.deadline(class).map(|d| at.saturating_add(d));
            let est = shards[m][s].est_batch_nanos;
            if let (Some(dl), true) = (deadline, est > 0.0) {
                let live = reps[m][s]
                    .iter()
                    .filter(|rep| {
                        matches!(
                            rep.state,
                            RepState::Idle | RepState::Busy { .. } | RepState::Reloading { .. }
                        )
                    })
                    .count()
                    .max(1);
                let ahead: usize = SloClass::ALL
                    .iter()
                    .filter(|c| c.priority() >= class.priority())
                    .map(|c| shards[m][s].queues[c.idx()].len())
                    .sum();
                let rounds = (ahead / max_batch[m] + 1) as f64;
                let est_done = now as f64 + rounds * est / live as f64;
                if est_done > dl as f64 {
                    model.per_class[class.idx()].shed_one().deadline_infeasible += 1;
                    arrivals.resolved(m, at, 1);
                    continue;
                }
            }

            // Capacity admission: full queues evict the youngest
            // occupant of the lowest class below the arrival, else the
            // arrival itself is shed.
            let shard = &mut shards[m][s];
            if shard.queued() >= cfg.queue_cap {
                let victim = SloClass::ALL
                    .iter()
                    .rev()
                    .filter(|c| c.priority() < class.priority())
                    .find_map(|c| shard.queues[c.idx()].pop_back());
                match victim {
                    Some(victim) => {
                        model.per_class[victim.class.idx()].shed_one().priority_evicted += 1;
                        arrivals.resolved(m, now, 1);
                    }
                    None => {
                        model.per_class[class.idx()].shed_one().queue_full += 1;
                        arrivals.resolved(m, at, 1);
                        continue;
                    }
                }
            }
            let inputs = (models[m].synth)(&mut rng, id);
            shard.queues[class.idx()].push_back(QueuedReq {
                req: Request { id, arrival: at, inputs },
                class,
                deadline,
                retries: 0,
            });
            model.admitted += 1;
            model.max_queue_depth = model.max_queue_depth.max(shard.queued());
        }

        // 4. Deadline expiry of queued requests.
        for (m, model_shards) in shards.iter_mut().enumerate() {
            for shard in model_shards.iter_mut() {
                for class in SloClass::ALL {
                    let q = &mut shard.queues[class.idx()];
                    let before = q.len();
                    q.retain(|r| r.deadline.is_none_or(|d| d > now));
                    let expired = before - q.len();
                    report.models[m].per_class[class.idx()].timed_out += expired as u64;
                    arrivals.resolved(m, now, expired);
                }
            }
        }

        // 5. Shards whose replicas all died: re-route their queues to
        // surviving shards (ordinary admission applies); with the whole
        // model dead the work is shed as replica loss, so the run
        // degrades gracefully instead of hanging.
        for m in 0..models.len() {
            let dead: Vec<bool> = reps[m]
                .iter()
                .map(|shard| shard.iter().all(|rep| matches!(rep.state, RepState::Dead)))
                .collect();
            if !dead.iter().any(|&d| d) {
                continue;
            }
            let all_dead = dead.iter().all(|&d| d);
            for s in 0..dead.len() {
                if !dead[s] || shards[m][s].queued() == 0 {
                    continue;
                }
                let stranded = shards[m][s].take_batch(usize::MAX);
                for q in stranded {
                    let stats = &mut report.models[m].per_class[q.class.idx()];
                    if all_dead {
                        stats.shed_one().replica_loss += 1;
                        arrivals.resolved(m, now, 1);
                        continue;
                    }
                    let loads: Vec<usize> = shards[m]
                        .iter()
                        .enumerate()
                        .map(|(i, st)| if dead[i] { usize::MAX } else { st.queued() })
                        .collect();
                    let target = routers[m].place(q.req.id, &loads).shard;
                    if shards[m][target].queued() >= cfg.queue_cap {
                        stats.shed_one().queue_full += 1;
                        arrivals.resolved(m, now, 1);
                    } else {
                        shards[m][target].queues[q.class.idx()].push_back(q);
                    }
                }
            }
        }

        // 6. Dispatch. Continuous: any idle replica with queued work
        // takes a batch immediately. FixedRound: only on a full batch,
        // an expired delay timer, or drain (no arrival scheduled). A
        // failed dispatch quarantines the replica and re-queues its
        // batch (front of its class queues, original order) for a
        // healthy one.
        for (m, spec) in models.iter_mut().enumerate() {
            for (s, shard_runners) in spec.shards.iter_mut().enumerate() {
                for (r, runner) in shard_runners.iter_mut().enumerate() {
                    if !matches!(reps[m][s][r].state, RepState::Idle) {
                        continue;
                    }
                    let shard = &mut shards[m][s];
                    // Deadline-aware dispatch: once the shard knows its
                    // batch service time, a queued request whose deadline
                    // lands inside the upcoming batch window cannot finish
                    // in time — drop it now (timed out) instead of burning
                    // replica capacity on a response that arrives dead.
                    if shard.est_batch_nanos > 0.0 {
                        let horizon = now.saturating_add(shard.est_batch_nanos as u64);
                        for class in SloClass::ALL {
                            let q = &mut shard.queues[class.idx()];
                            let before = q.len();
                            q.retain(|req| req.deadline.is_none_or(|d| d >= horizon));
                            let expired = before - q.len();
                            report.models[m].per_class[class.idx()].timed_out += expired as u64;
                            arrivals.resolved(m, now, expired);
                        }
                    }
                    let queued = shard.queued();
                    if queued == 0 {
                        break;
                    }
                    if let BatchPolicy::FixedRound { max_delay_nanos } = cfg.batching {
                        // Invariant: queued > 0, so an oldest exists.
                        let oldest = shard.oldest_arrival().expect("non-empty queue");
                        let draining = arrivals.due.is_empty();
                        if queued < max_batch[m] && now - oldest < max_delay_nanos && !draining {
                            continue;
                        }
                    }
                    let batch = shard.take_batch(max_batch[m]);
                    let refs: Vec<&Request> = batch.iter().map(|q| &q.req).collect();
                    match runner.run_batch(&refs) {
                        Ok(result) => {
                            let service = (result.service_nanos as u64).max(1);
                            let done = now.saturating_add(service);
                            reps[m][s][r].state =
                                RepState::Busy { free_at: done, carried: batch.len() };
                            shard.est_batch_nanos = if shard.est_batch_nanos == 0.0 {
                                result.service_nanos
                            } else {
                                0.7 * shard.est_batch_nanos + 0.3 * result.service_nanos
                            };
                            let model = &mut report.models[m];
                            model.batches += 1;
                            model.batched_requests += batch.len() as u64;
                            for (total, nanos) in model.class_nanos.iter_mut().zip(result.class_nanos) {
                                *total += nanos;
                            }
                            report.makespan_nanos = report.makespan_nanos.max(done);
                            for q in &batch {
                                model.per_class[q.class.idx()].completed += 1;
                                shard.latency[q.class.idx()].record((done - q.req.arrival) as f64);
                            }
                        }
                        Err(_) => {
                            report.recovery.crashes += 1;
                            failure_verdict(
                                &mut reps[m][s][r],
                                &cfg.recovery,
                                now,
                                &mut report.recovery,
                            );
                            for mut q in batch.into_iter().rev() {
                                if q.retries >= cfg.recovery.max_retries {
                                    report.recovery.dropped += 1;
                                    report.models[m].per_class[q.class.idx()]
                                        .shed_one()
                                        .replica_loss += 1;
                                    arrivals.resolved(m, now, 1);
                                } else {
                                    q.retries += 1;
                                    report.recovery.retried += 1;
                                    shard.queues[q.class.idx()].push_front(q);
                                }
                            }
                        }
                    }
                }
            }
        }

        // 7. Terminate once fully drained: no arrivals, nothing queued,
        // nothing running or mid-swap (so no client is left to issue).
        // Quarantined and dead replicas do not block termination: with
        // no work left there is nothing to recover *for*.
        let any_queued = shards.iter().flatten().any(|s| s.queued() > 0);
        let any_active = reps.iter().flatten().flatten().any(|rep| {
            matches!(rep.state, RepState::Busy { .. } | RepState::Reloading { .. })
        });
        if arrivals.due.is_empty() && !any_queued && !any_active {
            break;
        }

        // 8. Advance the clock to the next event: an arrival, a batch
        // completion, a quarantine or swap expiry, the oldest waiter
        // hitting max_delay, a deadline, or a reload coming due.
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            let t = t.max(now.saturating_add(1));
            next = Some(next.map_or(t, |n: u64| n.min(t)));
        };
        if let Some(Reverse((t, _))) = arrivals.due.peek() {
            consider(*t);
        }
        for rep in reps.iter().flatten().flatten() {
            match rep.state {
                RepState::Busy { free_at, .. } => consider(free_at),
                RepState::Quarantined { until } | RepState::Reloading { until } => consider(until),
                RepState::Idle | RepState::Dead => {}
            }
        }
        for (m, model_shards) in shards.iter().enumerate() {
            for (s, shard) in model_shards.iter().enumerate() {
                if shard.queued() == 0 {
                    continue;
                }
                let any_idle =
                    reps[m][s].iter().any(|rep| matches!(rep.state, RepState::Idle));
                if any_idle {
                    if let BatchPolicy::FixedRound { max_delay_nanos } = cfg.batching {
                        if let Some(oldest) = shard.oldest_arrival() {
                            // The one place delay timers are formed.
                            consider(oldest.saturating_add(max_delay_nanos));
                        }
                    }
                }
                for class in SloClass::ALL {
                    if let Some(front) = shard.queues[class.idx()].front() {
                        if let Some(dl) = front.deadline {
                            consider(dl);
                        }
                    }
                }
            }
        }
        for plans in &reload_plans {
            let gen = plans.iter().filter(|p| p.at_nanos <= now).count();
            if gen < plans.len() {
                consider(plans[gen].at_nanos);
            }
        }
        // A dispatch that retires a shard's last replica leaves its
        // re-queued batch behind, possibly with nothing else scheduled:
        // step 5 of the next tick re-routes or sheds it.
        let stranded = || {
            shards.iter().flatten().zip(reps.iter().flatten()).any(|(shard, reps)| {
                shard.queued() > 0 && reps.iter().all(|rep| matches!(rep.state, RepState::Dead))
            })
        };
        match next {
            Some(t) => now = t,
            None if stranded() => now = now.saturating_add(1),
            // Unreachable by construction: work remaining implies a
            // scheduled arrival, a busy/quarantined/swapping replica, a
            // dead-shard purge, or a queue-front timer. Surface a loop
            // bug as a typed error rather than a hang or panic.
            None => {
                return Err(ServeError::Fault(
                    "cluster stalled: work remains but no future event is scheduled".into(),
                ))
            }
        }
    }

    // Cross-shard aggregation: shard histograms merge into the model's
    // per-class stats, which merge into the cluster's.
    for (m, model_shards) in shards.iter().enumerate() {
        for shard in model_shards {
            for class in SloClass::ALL {
                report.models[m].per_class[class.idx()]
                    .latency
                    .merge(&shard.latency[class.idx()]);
            }
        }
        for class in SloClass::ALL {
            report.per_class[class.idx()].merge(&report.models[m].per_class[class.idx()]);
        }
    }
    for (spec, base_model) in models.iter().zip(&runtime_base) {
        for (shard, base_shard) in spec.shards.iter().zip(base_model) {
            for (runner, base) in shard.iter().zip(base_shard) {
                report.runtime.merge(&runner.runtime_counters().delta_since(base));
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinned::assert_pinned;
    use crate::worker::BatchResult;

    /// Deterministic runner with a fixed per-batch service time; records
    /// the ids it served and the reload checkpoints it applied.
    struct FakeRunner {
        capacity: usize,
        service_nanos: f64,
        served: Vec<u64>,
        reloaded: Vec<Vec<u8>>,
    }

    impl FakeRunner {
        fn new(capacity: usize, service_nanos: f64) -> Self {
            FakeRunner { capacity, service_nanos, served: Vec::new(), reloaded: Vec::new() }
        }
    }

    impl BatchRunner for FakeRunner {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
            self.served.extend(reqs.iter().map(|r| r.id));
            Ok(BatchResult {
                outputs: reqs.iter().map(|_| Tensor::zeros([1])).collect(),
                service_nanos: self.service_nanos,
                class_nanos: [0.0; 7],
            })
        }
    }

    impl ClusterRunner for FakeRunner {
        fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
            self.reloaded.push(checkpoint.to_vec());
            Ok(())
        }
    }

    fn no_inputs() -> SynthFn<'static> {
        Box::new(|_rng, _id| Vec::new())
    }

    fn spec<'a>(
        name: &str,
        shards: Vec<Vec<&'a mut dyn ClusterRunner>>,
        rps: f64,
    ) -> ModelSpec<'a> {
        ModelSpec { name: name.into(), shards, rps, synth: no_inputs() }
    }

    #[test]
    fn two_models_conserve_and_spread_over_shards() {
        let mut a0 = FakeRunner::new(4, 2_000_000.0);
        let mut a1 = FakeRunner::new(4, 2_000_000.0);
        let mut b0 = FakeRunner::new(4, 1_000_000.0);
        let mut b1 = FakeRunner::new(4, 1_000_000.0);
        let mut models = vec![
            spec("alpha", vec![vec![&mut a0], vec![&mut a1]], 300.0),
            spec("beta", vec![vec![&mut b0], vec![&mut b1]], 500.0),
        ];
        let cfg = ClusterConfig { duration_nanos: 500_000_000, ..ClusterConfig::new(4) };
        let r = serve_cluster(&mut models, &cfg).expect("serves");
        assert!(r.conserved(), "conservation must hold");
        assert_pinned("two models over two shards", &r.to_json(), 0xbfa5_4260_b095_ed71);
        assert!(r.issued() > 200, "Poisson(800 rps, 0.5 s) issues ~400, got {}", r.issued());
        assert_eq!(r.shed(), 0, "no overload, nothing shed");
        assert_eq!(r.timed_out(), 0);
        drop(models);
        // Both shards of both models must have served work.
        for f in [&a0, &a1, &b0, &b1] {
            assert!(!f.served.is_empty(), "every shard must serve under hashed routing");
        }
        // No request served twice.
        let mut all: Vec<u64> = [&a0, &a1, &b0, &b1].iter().flat_map(|f| f.served.clone()).collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a request must never be served twice");
        assert_eq!(total as u64, r.completed());
    }

    #[test]
    fn same_seed_reproduces_the_identical_report() {
        let run = || {
            let mut a = FakeRunner::new(4, 3_000_000.0);
            let mut b = FakeRunner::new(4, 3_000_000.0);
            let mut models = vec![spec("alpha", vec![vec![&mut a], vec![&mut b]], 900.0)];
            let cfg = ClusterConfig { duration_nanos: 300_000_000, ..ClusterConfig::new(4) };
            serve_cluster(&mut models, &cfg).expect("serves").to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overload_sheds_batch_class_first_and_interactive_meets_its_deadline() {
        // One slow replica, heavy offered load: the queue saturates and
        // admission must push the cost onto the Batch class while
        // Interactive completions stay inside their deadline.
        let mut only = FakeRunner::new(4, 20_000_000.0);
        let mut models = vec![spec("alpha", vec![vec![&mut only]], 2_000.0)];
        let cfg = ClusterConfig {
            duration_nanos: 400_000_000,
            queue_cap: 16,
            ..ClusterConfig::new(4)
        };
        let r = serve_cluster(&mut models, &cfg).expect("serves");
        assert!(r.conserved());
        let [inter, std_, batch] = &r.per_class;
        assert!(r.shed() > 0, "2000 rps into a 200 rps replica must shed");
        assert!(
            batch.shed + std_.shed > inter.shed,
            "lower classes shed first: interactive {} vs standard {} + batch {}",
            inter.shed,
            std_.shed,
            batch.shed
        );
        let deadline_ms = cfg.slo.deadline(SloClass::Interactive).unwrap() as f64 / 1e6;
        assert!(
            inter.latency.quantile(0.99) / 1e6 <= deadline_ms,
            "interactive p99 {:.3} ms must stay within its {deadline_ms} ms deadline",
            inter.latency.quantile(0.99) / 1e6
        );
        // The shed breakdown is itemized, not a single bucket.
        let reasons = r.shed_reasons();
        assert_eq!(reasons.total(), r.shed());
        assert!(
            reasons.priority_evicted > 0 || reasons.deadline_infeasible > 0,
            "overload must exercise typed shedding: {reasons:?}"
        );
    }

    #[test]
    fn continuous_batching_cuts_latency_versus_fixed_rounds() {
        // Moderate load on a capacity-4 replica: fixed rounds hold
        // partial batches for the delay timer; continuous dispatches the
        // moment the replica frees, so waiting time shrinks.
        let run = |batching: BatchPolicy| {
            let mut only = FakeRunner::new(4, 4_000_000.0);
            let mut models = vec![spec("alpha", vec![vec![&mut only]], 400.0)];
            let cfg = ClusterConfig {
                duration_nanos: 500_000_000,
                batching,
                ..ClusterConfig::new(4)
            };
            serve_cluster(&mut models, &cfg).expect("serves")
        };
        let cont = run(BatchPolicy::Continuous);
        let fixed = run(BatchPolicy::FixedRound { max_delay_nanos: 2_000_000 });
        assert!(cont.conserved() && fixed.conserved());
        assert_pinned("fixed rounds", &fixed.to_json(), 0x31a6_4eb0_fcde_6b92);
        let p99 = |r: &ClusterReport| {
            let mut all = LatencyHistogram::new();
            for c in &r.per_class {
                all.merge(&c.latency);
            }
            all.quantile(0.99)
        };
        assert!(
            p99(&cont) < p99(&fixed),
            "continuous p99 {} must beat fixed-round p99 {}",
            p99(&cont),
            p99(&fixed)
        );
    }

    #[test]
    fn hot_reload_swaps_every_replica_with_zero_drops() {
        let ck = vec![0xAB, 0xCD, 0xEF];
        let run = || {
            let mut a = FakeRunner::new(4, 2_000_000.0);
            let mut b = FakeRunner::new(4, 2_000_000.0);
            let mut c = FakeRunner::new(4, 2_000_000.0);
            let mut d = FakeRunner::new(4, 2_000_000.0);
            let mut models =
                vec![spec("alpha", vec![vec![&mut a, &mut b], vec![&mut c, &mut d]], 600.0)];
            let cfg = ClusterConfig {
                duration_nanos: 400_000_000,
                reloads: vec![ReloadPlan {
                    model: "alpha".into(),
                    at_nanos: 150_000_000,
                    checkpoint: ck.clone(),
                }],
                swap_nanos: 5_000_000,
                ..ClusterConfig::new(4)
            };
            let r = serve_cluster(&mut models, &cfg).expect("serves");
            drop(models);
            let reloaded: Vec<usize> = [&a, &b, &c, &d].iter().map(|f| f.reloaded.len()).collect();
            let mut served: Vec<u64> =
                [&a, &b, &c, &d].iter().flat_map(|f| f.served.clone()).collect();
            let total = served.len();
            served.sort_unstable();
            served.dedup();
            (r.to_json(), r.conserved(), r.shed() + r.timed_out(), r.reloads(), reloaded, served.len() == total)
        };
        let (json, conserved, lost, reloads, reloaded, unique) = run();
        assert!(conserved);
        assert_eq!(lost, 0, "a hot reload must drop nothing");
        assert_eq!(reloads, 4, "all four replicas swap");
        assert!(reloaded.iter().all(|&n| n == 1), "each replica reloads exactly once: {reloaded:?}");
        assert!(unique, "no request may be served twice across the swap");
        // Determinism across two seeded runs (acceptance criterion).
        let (json2, ..) = run();
        assert_eq!(json, json2);
        assert_pinned("hot reload", &json, 0x3dba_6990_9edb_6bca);
    }

    #[test]
    fn a_crashed_replica_loses_nothing_the_retry_budget_covers() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        let plan = Arc::new(
            FaultPlan::new(3).with(FaultSite::ServeBatch { replica: 0 }, 1, FaultAction::Crash),
        );
        let mut crashy = FaultyRunner::new(FakeRunner::new(4, 3_000_000.0), plan.clone(), 0);
        let mut healthy = FakeRunner::new(4, 3_000_000.0);
        let mut models =
            vec![spec("alpha", vec![vec![&mut crashy], vec![&mut healthy]], 400.0)];
        let cfg = ClusterConfig { duration_nanos: 400_000_000, ..ClusterConfig::new(4) };
        let r = serve_cluster(&mut models, &cfg).expect("serves");
        assert!(r.conserved());
        assert_eq!(r.recovery.crashes, 1, "the planned crash fires");
        assert!(r.recovery.retried >= 1, "the crashed batch requeues");
        assert_eq!(r.recovery.dropped, 0);
        assert_eq!(r.shed(), 0, "retries within budget lose nothing");
        assert_eq!(plan.fired_count(), 1);
        assert_pinned("crashed replica", &r.to_json(), 0x35ea_4eca_6f99_03ce);
    }

    #[test]
    fn a_dead_shard_reroutes_its_queue_to_survivors() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        // Replica 0 crashes on every dispatch until retired; its queued
        // work must flow to shard 1 rather than being stranded.
        let mut plan = FaultPlan::new(5);
        for hit in 0..16 {
            plan = plan.with(FaultSite::ServeBatch { replica: 0 }, hit, FaultAction::Crash);
        }
        let mut crashy = FaultyRunner::new(FakeRunner::new(4, 3_000_000.0), Arc::new(plan), 0);
        let mut healthy = FakeRunner::new(4, 3_000_000.0);
        let mut models =
            vec![spec("alpha", vec![vec![&mut crashy], vec![&mut healthy]], 500.0)];
        let cfg = ClusterConfig {
            duration_nanos: 400_000_000,
            recovery: RecoveryPolicy { max_retries: 8, ..RecoveryPolicy::default() },
            ..ClusterConfig::new(4)
        };
        let r = serve_cluster(&mut models, &cfg).expect("serves");
        assert!(r.conserved());
        assert_eq!(r.recovery.dead_replicas, 1, "shard 0's only replica retires");
        assert_pinned("dead shard", &r.to_json(), 0x05d5_2b98_c5a0_2025);
        drop(models);
        assert!(
            healthy.served.len() as u64 == r.completed(),
            "every completion must come from the surviving shard"
        );
        assert!(r.completed() > 0);
    }

    #[test]
    fn whole_model_dead_sheds_as_replica_loss_and_terminates() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        let mut plan = FaultPlan::new(1);
        for hit in 0..16 {
            plan = plan.with(FaultSite::ServeBatch { replica: 0 }, hit, FaultAction::Crash);
        }
        let mut only = FaultyRunner::new(FakeRunner::new(4, 3_000_000.0), Arc::new(plan), 0);
        let mut models = vec![spec("alpha", vec![vec![&mut only]], 300.0)];
        let cfg = ClusterConfig { duration_nanos: 300_000_000, ..ClusterConfig::new(4) };
        let r = serve_cluster(&mut models, &cfg).expect("terminates");
        assert!(r.conserved());
        assert_eq!(r.completed(), 0);
        assert!(r.shed_reasons().replica_loss > 0);
        assert_eq!(r.shed_reasons().replica_loss + r.timed_out(), r.shed() + r.timed_out());
    }

    #[test]
    fn empty_fleet_and_degenerate_configs_are_unservable() {
        let cfg = ClusterConfig::new(4);
        assert!(matches!(
            serve_cluster(&mut [], &cfg),
            Err(ServeError::Unservable(_))
        ));
        let mut models = vec![spec("alpha", vec![], 100.0)];
        assert!(matches!(
            serve_cluster(&mut models, &cfg),
            Err(ServeError::Unservable(_))
        ));
        let mut zero = FakeRunner::new(4, 1_000_000.0);
        let mut models = vec![spec("alpha", vec![vec![&mut zero]], 0.0)];
        assert!(matches!(
            serve_cluster(&mut models, &cfg),
            Err(ServeError::Unservable(_))
        ));
    }

    #[test]
    fn report_json_carries_per_class_and_per_model_blocks() {
        let mut a = FakeRunner::new(4, 2_000_000.0);
        let mut models = vec![spec("alpha", vec![vec![&mut a]], 300.0)];
        let cfg = ClusterConfig { duration_nanos: 200_000_000, ..ClusterConfig::new(4) };
        let r = serve_cluster(&mut models, &cfg).expect("serves");
        let json = r.to_json();
        for key in [
            "\"batching\": \"continuous\"",
            "\"classes\":",
            "\"class\": \"interactive\"",
            "\"class\": \"standard\"",
            "\"class\": \"batch\"",
            "\"models\":",
            "\"model\": \"alpha\"",
            "\"p99\"",
            "\"reloads\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
