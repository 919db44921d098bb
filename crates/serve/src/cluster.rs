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
//! * **Batching** — continuous: a replica that frees up immediately
//!   takes whatever is queued (up to `max_batch`), so newly arrived
//!   requests join the very next batch.
//! * **Supervision** — a replica that fails a batch is quarantined with
//!   exponential backoff and rebuilt via [`BatchRunner::recover`]; its
//!   batch re-queues at the front for a healthy replica, each request
//!   within a retry budget; replicas that keep failing are retired.
//! * **Hot reload** — a [`ReloadPlan`] swaps a model's weights from a
//!   checkpoint at a virtual time, rolling: one replica per shard at
//!   a time drains (finishes its in-flight batch), swaps via
//!   [`ClusterRunner::reload`], and rejoins. Queued work is never
//!   dropped; it is served by the not-currently-swapping replicas and
//!   replayed onto the reloaded ones.
//!
//! [`serve_cluster`] is the one entry. It offers each model an
//! open-loop Poisson trace, or, with [`ClusterConfig::closed_loop`]
//! set, a closed loop in which each resolved request lets its client
//! issue the next one. A single model on one shard is simply the
//! smallest fleet.
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

use crate::metrics::{LatencyHistogram, RecoveryCounters, ShedBreakdown};
use crate::router::Router;
use crate::slo::{SloClass, SloMix, SloPolicy};
use crate::worker::{BatchRunner, Request, ServeError, SessionWorker};

/// A replica that can additionally hot-swap its weights from a
/// checkpoint byte stream — the contract the cluster's reload machinery
/// needs on top of [`BatchRunner`].
pub trait ClusterRunner: BatchRunner {
    /// Replaces the served weights with `checkpoint`, a checkpoint
    /// stream `checkpoint::load` accepts. Called only while the replica
    /// is drained (no batch in flight).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the checkpoint is invalid for the
    /// replica's graph; the supervisor then quarantines the replica.
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError>;
}

impl ClusterRunner for SessionWorker {
    /// Swapping a `SessionWorker` is a `warm_start`: decode the
    /// checkpoint once into the weight set all its graphs share, so
    /// every batch extent serves it and a replica crashed *after* a
    /// reload recovers into the reloaded weights.
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
        self.warm_start(checkpoint)
    }
}

/// One scheduled hot model swap.
#[derive(Debug, Clone)]
pub struct ReloadPlan {
    /// Which model's shards swap.
    pub model: String,
    /// Virtual time the rollout begins.
    pub at_nanos: u64,
    /// What the replicas reload from: a checkpoint stream
    /// `checkpoint::load` accepts.
    pub checkpoint: Vec<u8>,
}

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

/// A closed-loop load: `clients` concurrent callers, each issuing its
/// next request the moment the previous one resolves, until `requests`
/// have been issued in total. Client `i` calls model `i mod M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoop {
    /// Concurrent callers.
    pub clients: usize,
    /// Total requests across all callers.
    pub requests: usize,
}

/// Cluster-wide batching, admission, and reload parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Most requests coalesced into one session run.
    pub max_batch: usize,
    /// Admission bound per shard queue (all classes together).
    pub queue_cap: usize,
    /// Per-class deadlines.
    pub slo: SloPolicy,
    /// Traffic mix over the classes.
    pub mix: SloMix,
    /// Open-loop arrival window, virtual nanoseconds.
    pub duration_nanos: u64,
    /// Offer a closed loop instead of the open one; when set,
    /// `duration_nanos` and every [`ModelSpec::rps`] go unread.
    pub closed_loop: Option<ClosedLoop>,
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
    /// A queue of `16 * max_batch` per shard, the default SLO policy
    /// and mix, a 1 s open loop, load-aware spill at `2 * max_batch`, a
    /// 1 ms swap, and no reloads.
    pub fn new(max_batch: usize) -> Self {
        ClusterConfig {
            max_batch,
            queue_cap: 16 * max_batch,
            slo: SloPolicy::default_serving(),
            mix: SloMix::default_mix(),
            duration_nanos: 1_000_000_000,
            closed_loop: None,
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
    /// Offered open-loop Poisson rate, requests per second (unread
    /// under a closed loop).
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

    /// End-to-end latency of every completed request, all classes.
    pub fn latency(&self) -> LatencyHistogram {
        let mut total = LatencyHistogram::new();
        for c in &self.per_class {
            total.merge(&c.latency);
        }
        total
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
        // The one dispatch rule, named so the report keeps its shape.
        Json::obj()
            .with("batching", "continuous")
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

/// One model's open-loop Poisson process, drawn one arrival at a time
/// as the loop consumes it.
struct Poisson {
    rng: Rng,
    /// Virtual time of the last arrival drawn, nanoseconds.
    t: f64,
    rps: f64,
    /// End of the arrival window, nanoseconds.
    end: f64,
}

impl Poisson {
    /// The next arrival, or `None` once the window has closed (the
    /// stream is not drawn from again after that).
    fn next(&mut self) -> Option<u64> {
        // Exponential inter-arrival; 1 - uniform() keeps ln() off 0.
        self.t += -(1.0 - self.rng.uniform() as f64).ln() / self.rps * 1e9;
        (self.t < self.end).then_some(self.t as u64)
    }
}

/// The load offered to one run of the loop: the arrivals scheduled so
/// far, earliest first, and how more are made. In an open loop each
/// model's Poisson stream keeps its next arrival in the heap and draws
/// the one after when it pops; in a closed loop the clients issue again,
/// one per resolved request, until the budget is spent.
#[derive(Default)]
struct Arrivals {
    /// `(virtual time, model)`. Ties pop in model order; arrivals of one
    /// model at one instant are interchangeable (ids are given out as
    /// they pop).
    due: BinaryHeap<Reverse<(u64, usize)>>,
    /// Open loop: model `m`'s Poisson stream at index `m`; `due` holds
    /// at most one pending arrival per stream. Empty in a closed loop.
    streams: Vec<Poisson>,
    /// Requests a closed loop has yet to issue. Zero in an open loop.
    budget: usize,
}

impl Arrivals {
    /// An open loop: model `m` arrives as a Poisson process at `rates[m]`
    /// over `duration_nanos` of virtual time, drawn from its own stream
    /// seeded from `seed` and `m`. Every model's times are
    /// non-decreasing, so popping one arrival at a time per model gives
    /// the `(time, model)` order of the whole trace laid out at once.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unservable`] unless every rate is finite
    /// and positive (any other rate never reaches the end of the window).
    fn open(
        rates: impl IntoIterator<Item = f64>,
        seed: u64,
        duration_nanos: u64,
    ) -> Result<Self, ServeError> {
        let mut arrivals = Arrivals::default();
        for (m, rps) in rates.into_iter().enumerate() {
            if !(rps.is_finite() && rps > 0.0) {
                return Err(ServeError::Unservable(format!(
                    "open-loop load needs a finite positive rate, got {rps}"
                )));
            }
            let mut stream = Poisson {
                rng: Rng::seeded(seed ^ (0x9E37_79B9 + m as u64)),
                t: 0.0,
                rps,
                end: duration_nanos as f64,
            };
            if let Some(t) = stream.next() {
                arrivals.due.push(Reverse((t, m)));
            }
            arrivals.streams.push(stream);
        }
        Ok(arrivals)
    }

    /// A closed loop over `models` models: `clients` callers, client `i`
    /// bound to model `i % models`, issue at time 0 and again the moment
    /// their request resolves, until `requests` have been issued in
    /// total.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unservable`] when there are requests to
    /// issue and no client to issue them.
    fn closed(load: ClosedLoop, models: usize) -> Result<Self, ServeError> {
        let ClosedLoop { clients, requests } = load;
        if clients == 0 && requests > 0 {
            return Err(ServeError::Unservable("closed-loop load needs at least one client".into()));
        }
        let first = clients.min(requests);
        // `max(1)`: an empty fleet is refused by the loop, not here.
        let due = (0..first).map(|i| Reverse((0, i % models.max(1)))).collect();
        Ok(Arrivals { due, streams: Vec::new(), budget: requests - first })
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

    /// Time of the earliest pending arrival.
    fn next_at(&self) -> Option<u64> {
        self.due.peek().map(|Reverse((t, _))| *t)
    }

    /// Takes the earliest arrival due by `now` as `(time, model)`; in an
    /// open loop its model's stream draws the one after.
    fn pop_due(&mut self, now: u64) -> Option<(u64, usize)> {
        if self.next_at()? > now {
            return None;
        }
        let Reverse((at, m)) = self.due.pop()?;
        if let Some(t) = self.streams.get_mut(m).and_then(Poisson::next) {
            self.due.push(Reverse((t, m)));
        }
        Some((at, m))
    }
}

/// Runs one cluster experiment: offers each model its load under `cfg`
/// (an open-loop Poisson trace at [`ModelSpec::rps`], or the closed
/// loop of [`ClusterConfig::closed_loop`]), routing through consistent
/// hashing with load-aware spill, admitting by SLO class, and applying
/// any scheduled hot reloads. Returns when every admitted request has
/// resolved (graceful drain, never mid-flight abandonment).
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
/// fleet, an open-loop rate that is not finite and positive, or a
/// closed loop with requests to issue and no client; and
/// [`ServeError::Fault`] if the event loop ever stalls (a bug in the
/// loop, not a replica failure).
pub fn serve_cluster(
    models: &mut [ModelSpec<'_>],
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    let arrivals = match cfg.closed_loop {
        Some(closed) => Arrivals::closed(closed, models.len())?,
        None => Arrivals::open(models.iter().map(|s| s.rps), cfg.seed, cfg.duration_nanos)?,
    };
    run(models, cfg, arrivals, Rng::seeded(cfg.seed))
}

/// The event loop under [`serve_cluster`]: serves `arrivals` and draws
/// request classes and payloads from `rng`.
fn run(
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
                                // A replica rebuilt from its weights may
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
        while let Some((at, m)) = arrivals.pop_due(now) {
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

        // 6. Dispatch: any idle replica with queued work takes a batch
        // immediately. A failed dispatch quarantines the replica and re-queues its
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
                    if shard.queued() == 0 {
                        break;
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
        if arrivals.next_at().is_none() && !any_queued && !any_active {
            break;
        }

        // 8. Advance the clock to the next event: an arrival, a batch
        // completion, a quarantine or swap expiry, a deadline, or a
        // reload coming due.
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            let t = t.max(now.saturating_add(1));
            next = Some(next.map_or(t, |n: u64| n.min(t)));
        };
        if let Some(t) = arrivals.next_at() {
            consider(t);
        }
        for rep in reps.iter().flatten().flatten() {
            match rep.state {
                RepState::Busy { free_at, .. } => consider(free_at),
                RepState::Quarantined { until } | RepState::Reloading { until } => consider(until),
                RepState::Idle | RepState::Dead => {}
            }
        }
        for shard in shards.iter().flatten() {
            for class in SloClass::ALL {
                if let Some(front) = shard.queues[class.idx()].front() {
                    if let Some(dl) = front.deadline {
                        consider(dl);
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
    // per-class stats (each shard sample copied once), which merge into
    // the cluster's by sharing the model's sample runs.
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
    /// the ids it served, its batch sizes and the reload checkpoints it
    /// applied.
    struct FakeRunner {
        capacity: usize,
        service_nanos: f64,
        served: Vec<u64>,
        batches: Vec<usize>,
        reloaded: Vec<Vec<u8>>,
    }

    impl FakeRunner {
        fn new(capacity: usize, service_nanos: f64) -> Self {
            FakeRunner {
                capacity,
                service_nanos,
                served: Vec::new(),
                batches: Vec::new(),
                reloaded: Vec::new(),
            }
        }
    }

    impl BatchRunner for FakeRunner {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
            self.served.extend(reqs.iter().map(|r| r.id));
            self.batches.push(reqs.len());
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

    // The smallest fleet: one model on one shard, every request in
    // class Standard. The `numbers` literals pin same-seed behaviour: a
    // change meant to keep it keeps them to the digit.

    /// One model on one shard at `max_batch`: a queue of `8 * max_batch`,
    /// every request Standard with `deadline`, seed `0xFA7408`.
    fn one_model(max_batch: usize, deadline: Option<u64>) -> ClusterConfig {
        let mut slo = SloPolicy { deadline_nanos: [None; SloClass::COUNT] };
        slo.deadline_nanos[SloClass::Standard.idx()] = deadline;
        ClusterConfig {
            queue_cap: 8 * max_batch,
            slo,
            mix: SloMix::pure(SloClass::Standard),
            seed: 0xFA7408,
            ..ClusterConfig::new(max_batch)
        }
    }

    fn open(rps: f64, duration_nanos: u64, cfg: ClusterConfig) -> (f64, ClusterConfig) {
        (rps, ClusterConfig { duration_nanos, ..cfg })
    }

    fn closed(clients: usize, requests: usize, cfg: ClusterConfig) -> (f64, ClusterConfig) {
        (0.0, ClusterConfig { closed_loop: Some(ClosedLoop { clients, requests }), ..cfg })
    }

    /// Serves `load` (a rate and a config) on one shard of `replicas`.
    fn serve_one(
        replicas: Vec<&mut dyn ClusterRunner>,
        (rps, cfg): (f64, ClusterConfig),
    ) -> Result<ClusterReport, ServeError> {
        serve_cluster(&mut [spec("fake", vec![replicas], rps)], &cfg)
    }

    /// The numbers a one-model run is pinned by, rendered as the report
    /// renders them.
    fn numbers(r: &ClusterReport) -> String {
        let model = &r.models[0];
        Json::obj()
            .with("issued", r.issued())
            .with("completed", r.completed())
            .with("shed", r.shed())
            .with("timed_out", r.timed_out())
            .with("makespan_ms", Json::fixed(r.makespan_nanos as f64 / 1e6, 3))
            .with("latency_ms", r.latency().json_ms())
            .with("batches", model.batches)
            .with("max_queue_depth", model.max_queue_depth)
            .with("recovery", r.recovery)
            .render()
    }

    const NO_RECOVERY: &str = r#""recovery": {"crashes": 0, "retried": 0, "dropped": 0, "quarantines": 0, "recoveries": 0, "dead_replicas": 0}"#;

    #[test]
    fn one_model_open_loop_conserves_requests() {
        let mut runner = FakeRunner::new(4, 1_000_000.0);
        let r = serve_one(vec![&mut runner], open(200.0, 1_000_000_000, one_model(4, None))).unwrap();
        assert!(r.issued() > 100, "Poisson(200 rps, 1 s) should issue ~200, got {}", r.issued());
        assert!(r.conserved());
        assert_eq!(r.completed(), runner.batches.iter().sum::<usize>() as u64);
        assert!(r.throughput_rps() > 0.0);
    }

    #[test]
    fn heavy_load_fills_batches() {
        // Service is slow relative to arrivals, so the queue backs up and
        // dispatches run at the coalescing limit.
        let mut runner = FakeRunner::new(4, 50_000_000.0);
        let cfg = ClusterConfig { queue_cap: 64, ..one_model(4, None) };
        let r = serve_one(vec![&mut runner], open(1000.0, 200_000_000, cfg)).unwrap();
        let full = runner.batches.iter().filter(|&&size| size == 4).count();
        assert_eq!(r.models[0].batches, runner.batches.len() as u64);
        assert!(full * 2 > runner.batches.len(), "expected mostly full batches, sizes {:?}", runner.batches);
        assert!(r.models[0].max_queue_depth > 4);
    }

    #[test]
    fn closed_loop_issues_exactly_the_request_budget() {
        let mut runner = FakeRunner::new(8, 3_000_000.0);
        let r = serve_one(vec![&mut runner], closed(6, 40, one_model(4, None))).unwrap();
        assert_eq!((r.issued(), r.completed(), r.shed()), (40, 40, 0));
        assert_eq!(r.models[0].mean_batch(), 4.0);
        assert!((r.throughput_rps() - 40.0 / 0.03).abs() < 1e-6);
        assert_eq!(
            numbers(&r),
            format!(
                r#"{{
  "issued": 40,
  "completed": 40,
  "shed": 0,
  "timed_out": 0,
  "makespan_ms": 30.000,
  "latency_ms": {{"p50": 3.000, "p95": 6.000, "p99": 6.000, "mean": 4.350, "max": 6.000}},
  "batches": 10,
  "max_queue_depth": 6,
  {NO_RECOVERY}
}}
"#
            )
        );
        // 6 clients with zero think time never batch above the client count.
        assert!(runner.batches.iter().all(|&s| s <= 6));
    }

    #[test]
    fn tiny_queue_sheds_under_overload() {
        let mut runner = FakeRunner::new(2, 100_000_000.0);
        let cfg = ClusterConfig { queue_cap: 2, ..one_model(2, None) };
        let r = serve_one(vec![&mut runner], open(500.0, 500_000_000, cfg)).unwrap();
        assert!(r.shed() > 0, "queue_cap=2 under 500 rps must shed");
        assert!(r.conserved(), "every shed carries a reason");
        assert_eq!(r.shed_reasons().queue_full, r.shed(), "admission sheds are queue-full");
        assert!(r.to_json().contains("\"shed_reasons\": {\"queue_full\": 238,"));
        assert_eq!(
            numbers(&r),
            format!(
                r#"{{
  "issued": 249,
  "completed": 11,
  "shed": 238,
  "timed_out": 0,
  "makespan_ms": 602.130,
  "latency_ms": {{"p50": 194.869, "p95": 199.341, "p99": 199.341, "mean": 186.834, "max": 199.341}},
  "batches": 6,
  "max_queue_depth": 2,
  {NO_RECOVERY}
}}
"#
            )
        );
    }

    #[test]
    fn deadlines_time_out_queued_work() {
        // One replica at 8 ms a request, a 10 ms deadline. An arrival
        // that finds the replica just started is admitted (one 8 ms
        // round fits) and then blows its deadline waiting for the
        // replica to free; one that finds a request already queued is
        // refused outright by deadline-aware admission.
        let mut runner = FakeRunner::new(1, 8_000_000.0);
        let cfg = ClusterConfig { queue_cap: 64, ..one_model(1, Some(10_000_000)) };
        let r = serve_one(vec![&mut runner], open(100.0, 1_000_000_000, cfg)).unwrap();
        assert!(r.timed_out() > 0, "expected deadline expirations");
        assert!(r.shed_reasons().deadline_infeasible > 0, "expected deadline-aware sheds");
        assert!(r.conserved());
        // In-flight work is never cancelled: every dispatched batch completes.
        assert_eq!(r.completed(), runner.batches.iter().sum::<usize>() as u64);
        assert!(r.latency().max() <= 10_000_000.0, "no completion is late: {}", r.latency().max());
    }

    #[test]
    fn two_replicas_share_the_queue() {
        let mut a = FakeRunner::new(4, 20_000_000.0);
        let mut b = FakeRunner::new(4, 20_000_000.0);
        let cfg = ClusterConfig { queue_cap: 64, ..one_model(4, None) };
        let r = serve_one(vec![&mut a, &mut b], open(400.0, 300_000_000, cfg)).unwrap();
        assert_eq!(r.models[0].replicas, 2);
        assert!(!a.batches.is_empty() && !b.batches.is_empty(), "both replicas must serve");
        assert_eq!(r.completed(), (a.served.len() + b.served.len()) as u64);
    }

    #[test]
    fn one_model_same_seed_is_bit_identical() {
        let run = || {
            let mut runner = FakeRunner::new(4, 5_000_000.0);
            serve_one(vec![&mut runner], open(300.0, 400_000_000, one_model(4, None))).unwrap()
        };
        let first = run();
        assert_eq!(first.to_json(), run().to_json());
        assert!(!first.to_json().contains("shed_reasons"), "a run that sheds nothing has no reasons");
        assert_eq!(
            numbers(&first),
            format!(
                r#"{{
  "issued": 127,
  "completed": 127,
  "shed": 0,
  "timed_out": 0,
  "makespan_ms": 404.666,
  "latency_ms": {{"p50": 7.226, "p95": 9.841, "p99": 11.086, "mean": 7.349, "max": 11.943}},
  "batches": 70,
  "max_queue_depth": 6,
  {NO_RECOVERY}
}}
"#
            )
        );
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
        let r = serve_one(vec![&mut a, &mut b], closed(4, 24, one_model(4, None))).unwrap();
        // One crash, every rider retried within budget: nothing is lost.
        assert_eq!((r.issued(), r.completed()), (24, 24), "retried requests must complete");
        assert!(r.conserved());
        assert_eq!(plan.fired_count(), 1, "the injected crash must have fired");
        assert_eq!(
            numbers(&r),
            r#"{
  "issued": 24,
  "completed": 24,
  "shed": 0,
  "timed_out": 0,
  "makespan_ms": 30.000,
  "latency_ms": {"p50": 5.000, "p95": 5.000, "p99": 5.000, "mean": 5.000, "max": 5.000},
  "batches": 6,
  "max_queue_depth": 4,
  "recovery": {"crashes": 1, "retried": 4, "dropped": 0, "quarantines": 1, "recoveries": 1, "dead_replicas": 0}
}
"#
        );
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
        let r = serve_one(vec![&mut only], closed(4, 16, one_model(4, None))).unwrap();
        assert!(r.conserved());
        assert_eq!(r.shed(), r.issued(), "every issued request is reported shed");
        assert_eq!(
            r.shed_reasons().replica_loss,
            r.shed(),
            "dead-fleet sheds are all attributed to replica loss"
        );
        assert_eq!(
            numbers(&r),
            r#"{
  "issued": 16,
  "completed": 0,
  "shed": 16,
  "timed_out": 0,
  "makespan_ms": 0.000,
  "latency_ms": {"p50": 0.000, "p95": 0.000, "p99": 0.000, "mean": 0.000, "max": 0.000},
  "batches": 0,
  "max_queue_depth": 4,
  "recovery": {"crashes": 3, "retried": 8, "dropped": 4, "quarantines": 2, "recoveries": 2, "dead_replicas": 1}
}
"#
        );
    }

    #[test]
    fn the_last_replica_dying_with_retries_left_still_terminates() {
        use crate::chaos::FaultyRunner;
        use fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
        use std::sync::Arc;

        // No restarts: the first crash retires the only replica while
        // its batch, retry budget intact, goes back on the queue. Every
        // client is waiting on that batch, so nothing else is scheduled.
        let plan = FaultPlan::new(5).with(FaultSite::ServeBatch { replica: 0 }, 0, FaultAction::Crash);
        let mut only = FaultyRunner::new(FakeRunner::new(4, 5_000_000.0), Arc::new(plan), 0);
        let cfg = ClusterConfig {
            recovery: RecoveryPolicy { max_restarts: 0, ..RecoveryPolicy::default() },
            ..one_model(4, None)
        };
        let r = serve_one(vec![&mut only], closed(2, 4, cfg)).unwrap();
        assert_eq!((r.issued(), r.completed(), r.shed()), (4, 0, 4));
        assert_eq!(r.shed_reasons().replica_loss, 4);
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
        let r = serve_one(vec![&mut runner], closed(2, 2, one_model(4, None))).unwrap();
        assert_eq!((r.completed(), r.models[0].batches), (2, 1));
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
            let cfg = ClusterConfig { queue_cap: 64, ..one_model(4, None) };
            serve_one(vec![&mut a, &mut b], open(400.0, 300_000_000, cfg)).unwrap()
        };
        let first = run();
        assert!(first.to_json().contains("\"recovery\""), "faulted run must report recovery counters");
        assert_eq!(first.to_json(), run().to_json());
        assert_eq!(
            numbers(&first),
            r#"{
  "issued": 127,
  "completed": 127,
  "shed": 0,
  "timed_out": 0,
  "makespan_ms": 303.500,
  "latency_ms": {"p50": 5.905, "p95": 9.279, "p99": 11.457, "mean": 6.532, "max": 36.720},
  "batches": 91,
  "max_queue_depth": 6,
  "recovery": {"crashes": 1, "retried": 2, "dropped": 0, "quarantines": 1, "recoveries": 1, "dead_replicas": 0}
}
"#
        );
    }

    #[test]
    fn degenerate_loads_are_unservable_not_a_hang() {
        for rps in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let mut runner = FakeRunner::new(4, 1_000_000.0);
            let err = serve_one(vec![&mut runner], open(rps, 1_000_000_000, one_model(4, None)))
                .unwrap_err();
            assert!(matches!(err, ServeError::Unservable(_)), "rps {rps}: got {err}");
        }
        // Requests to issue and nobody to issue them.
        let mut runner = FakeRunner::new(4, 1_000_000.0);
        let err = serve_one(vec![&mut runner], closed(0, 3, one_model(4, None))).unwrap_err();
        assert!(matches!(err, ServeError::Unservable(_)), "got {err}");
        // A closed loop on an empty replica set.
        let err = serve_one(vec![], closed(1, 1, one_model(4, None))).unwrap_err();
        assert!(matches!(err, ServeError::Unservable(_)), "got {err}");
    }

    #[test]
    fn a_deadline_of_u64_max_means_never() {
        // Deadlines are arrival + span; at u64::MAX the sum must stay in
        // the future (nothing times out), not wrap into the past.
        let mut runner = FakeRunner::new(4, 1_000_000.0);
        let cfg = ClusterConfig { queue_cap: 1024, ..one_model(4, Some(u64::MAX)) };
        let r = serve_one(vec![&mut runner], open(300.0, 200_000_000, cfg)).unwrap();
        assert!(r.issued() > 20);
        assert_eq!((r.completed(), r.shed(), r.timed_out()), (r.issued(), 0, 0));
    }

    #[test]
    fn a_closed_loop_over_two_models_binds_clients_round_robin() {
        let run = || {
            let mut a0 = FakeRunner::new(4, 2_000_000.0);
            let mut a1 = FakeRunner::new(4, 2_000_000.0);
            let mut b0 = FakeRunner::new(4, 5_000_000.0);
            let mut models = vec![
                spec("alpha", vec![vec![&mut a0], vec![&mut a1]], 0.0),
                spec("beta", vec![vec![&mut b0]], 0.0),
            ];
            let cfg = ClusterConfig {
                closed_loop: Some(ClosedLoop { clients: 5, requests: 60 }),
                ..ClusterConfig::new(4)
            };
            let r = serve_cluster(&mut models, &cfg).expect("serves");
            drop(models);
            let served = [&a0, &a1, &b0].map(|f| f.served.len() as u64);
            (r, served)
        };
        let (r, [a0, a1, b0]) = run();
        assert!(r.conserved());
        assert_eq!(r.issued(), 60, "the budget is fleet-wide");
        assert_eq!(r.completed(), a0 + a1 + b0);
        let [alpha, beta] = &r.models[..] else { panic!("two models reported") };
        assert_eq!((alpha.completed(), beta.completed()), (a0 + a1, b0));
        // Three clients call alpha and two call beta; each re-issues to
        // its own model, so both keep their callers to the end.
        assert!(alpha.issued() > 0 && beta.issued() > 0);
        assert!(r.models.iter().all(|m| m.batches > 0));
        assert_eq!(r.to_json(), run().0.to_json(), "same seed, same bytes");
    }

    /// The open-loop trace as it was laid out before the run: every
    /// model's whole Poisson process pushed into one heap up front, then
    /// popped in `(time, model)` order.
    fn laid_out(rates: &[f64], seed: u64, duration_nanos: u64) -> Vec<(u64, usize)> {
        let mut due = BinaryHeap::new();
        for (m, &rps) in rates.iter().enumerate() {
            let mut rng = Rng::seeded(seed ^ (0x9E37_79B9 + m as u64));
            let mut t = 0.0f64;
            loop {
                t += -(1.0 - rng.uniform() as f64).ln() / rps * 1e9;
                if t >= duration_nanos as f64 {
                    break;
                }
                due.push(Reverse((t as u64, m)));
            }
        }
        std::iter::from_fn(|| due.pop().map(|Reverse(a)| a)).collect()
    }

    #[test]
    fn lazy_arrivals_pop_the_laid_out_trace() {
        // Zipf-like rates, a model that draws nothing inside the window
        // (1e-3 rps over 50 ms), and a window short enough at 4e9 rps
        // that many arrivals share a nanosecond, within and across
        // models.
        let cases: [(&[f64], u64); 4] = [
            (&[3000.0, 1500.0, 1000.0, 750.0], 50_000_000),
            (&[400.0, 1e-3, 900.0], 50_000_000),
            (&[1e-3], 50_000_000),
            (&[4e9, 2e9, 4e9], 2_000),
        ];
        for (rates, duration) in cases {
            for seed in [1, 7, 42] {
                let oracle = laid_out(rates, seed, duration);
                let mut arrivals = Arrivals::open(rates.iter().copied(), seed, duration).unwrap();
                let mut lazy = Vec::new();
                while let Some(a) = arrivals.pop_due(u64::MAX) {
                    assert!(arrivals.due.len() <= rates.len(), "one pending arrival per model");
                    lazy.push(a);
                }
                assert_eq!(lazy, oracle, "rates {rates:?}, seed {seed}");
            }
        }
        let ties = laid_out(&[4e9, 2e9, 4e9], 7, 2_000);
        assert!(ties.windows(2).any(|w| w[0].0 == w[1].0), "the last case exercises ties");
        assert!(laid_out(&[1e-3], 7, 50_000_000).is_empty());
        // Nothing pops before it is due.
        let mut arrivals = Arrivals::open([1000.0], 7, 50_000_000).unwrap();
        let first = arrivals.next_at().unwrap();
        assert_eq!(arrivals.pop_due(first - 1), None);
        assert_eq!(arrivals.pop_due(first), Some((first, 0)));
    }

    #[test]
    fn cluster_histograms_hold_no_sample_of_their_own() {
        let mut a0 = FakeRunner::new(4, 2_000_000.0);
        let mut a1 = FakeRunner::new(4, 2_000_000.0);
        let mut b0 = FakeRunner::new(4, 1_000_000.0);
        let mut models = vec![
            spec("alpha", vec![vec![&mut a0], vec![&mut a1]], 300.0),
            spec("beta", vec![vec![&mut b0]], 500.0),
        ];
        let cfg = ClusterConfig { duration_nanos: 300_000_000, ..ClusterConfig::new(4) };
        let r = serve_cluster(&mut models, &cfg).expect("serves");
        for class in SloClass::ALL {
            let owners: Vec<&LatencyHistogram> =
                r.models.iter().map(|m| &m.per_class[class.idx()].latency).collect();
            let cluster = &r.per_class[class.idx()].latency;
            assert!(cluster.count() > 0, "{}: every class completes work", class.name());
            assert_eq!(cluster.count(), owners.iter().map(|h| h.count()).sum::<usize>());
            assert!(cluster.held_by(&owners), "{}: cluster samples are the models'", class.name());
        }
        let owners: Vec<&LatencyHistogram> =
            r.models.iter().flat_map(|m| m.per_class.iter().map(|c| &c.latency)).collect();
        let all = r.latency();
        assert_eq!(all.count() as u64, r.completed());
        assert!(all.held_by(&owners), "the whole-run histogram copies nothing");
    }
}
