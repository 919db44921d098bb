//! Session state and the step frame around the drivers: the [`Session`]
//! with its variables, optimizer slots and random stream, the undo
//! journal that makes a failed step a no-op, the numeric [`Guardrail`],
//! and [`Session::run`] — validation, driver choice, rollback and the
//! one step epilogue.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fathom_tensor::{BufferPool, ExecPool, Precision, RecycleStats, Rng, Runtime, Tensor};

use super::dispatch::ExecCtx;
use super::plan::Plan;
use super::pool::run_pooled;
use super::quant::{CalibrationRanges, QuantPlan};
use super::step::{emit, run_serial, Step};
use super::ExecError;
use crate::cost;
use crate::device::Device;
use crate::fault::FaultPlan;
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;
use crate::optimize;
use crate::trace::{RunTrace, RuntimeCounters, TraceEvent};

/// A numeric watchdog inspected after every [`Session::run`], before the
/// step commits (see [`Session::set_guardrail`]).
///
/// Divergence in long training runs shows up as NaN/Inf losses or
/// exploding gradients; by the time a human notices, hours of compute are
/// gone. An armed guardrail turns that into a typed, recoverable error:
/// the offending step is rolled back via the undo journal (variables,
/// optimizer slots, RNG, and the run counter all rewind), so the caller
/// can retry, skip the batch, or back off the learning rate.
#[derive(Debug, Clone, Default)]
pub struct Guardrail {
    /// Per-node magnitude limits: trip when any element of the fetched
    /// value for the node exceeds the bound in absolute value.
    pub limits: Vec<(NodeId, f32)>,
    /// Trip when any fetched value contains a non-finite element.
    pub fetches_finite: bool,
    /// Trip when any variable mutated this run ends up non-finite.
    pub updates_finite: bool,
}

impl Guardrail {
    /// A guardrail that demands finite fetches and finite variable
    /// updates, with no magnitude limits.
    pub fn finite() -> Self {
        Guardrail { limits: Vec::new(), fetches_finite: true, updates_finite: true }
    }

    /// Adds a magnitude limit on a fetched node (e.g. the loss or a
    /// gradient norm).
    #[must_use]
    pub fn with_limit(mut self, node: NodeId, limit: f32) -> Self {
        self.limits.push((node, limit));
        self
    }
}

/// The mutable state touched by stateful ops: variables, optimizer slots,
/// and the random stream. Split out of [`Session`] so the step drivers can
/// borrow it independently of the graph and pools.
///
/// The undo journal makes a failed run recoverable: before an `Apply*`
/// op first mutates a variable or optimizer slot within a run, the prior
/// value is recorded; if the run errors (or an op panics), [`Session::run`]
/// replays the journal so the session lands back in exactly the state it
/// had when the failed run began.
#[derive(Debug)]
pub(super) struct SessionState {
    pub(super) variables: HashMap<NodeId, Tensor>,
    pub(super) slots: HashMap<(NodeId, &'static str), Tensor>,
    pub(super) rng: Rng,
    /// Pre-mutation variable values for the in-flight run.
    journal_vars: HashMap<NodeId, Tensor>,
    /// Pre-mutation optimizer-slot values for the in-flight run
    /// (`None` = the slot did not exist yet).
    journal_slots: HashMap<(NodeId, &'static str), Option<Tensor>>,
}

impl SessionState {
    /// Records a variable's value before its first mutation this run.
    pub(super) fn journal_variable(&mut self, id: NodeId) {
        if !self.journal_vars.contains_key(&id) {
            if let Some(v) = self.variables.get(&id) {
                let v = v.clone();
                self.journal_vars.insert(id, v);
            }
        }
    }

    /// Records an optimizer slot's value before its first mutation this run.
    pub(super) fn journal_slot(&mut self, key: (NodeId, &'static str)) {
        if !self.journal_slots.contains_key(&key) {
            let prior = self.slots.get(&key).cloned();
            self.journal_slots.insert(key, prior);
        }
    }

    /// Discards the journal after a successful run.
    fn commit(&mut self) {
        self.journal_vars.clear();
        self.journal_slots.clear();
    }

    /// Replays the journal after a failed run, restoring every mutated
    /// variable and slot to its pre-run value and the RNG to `rng`.
    fn rollback(&mut self, rng: Rng) {
        for (id, value) in self.journal_vars.drain() {
            self.variables.insert(id, value);
        }
        for (key, prior) in self.journal_slots.drain() {
            match prior {
                Some(value) => {
                    self.slots.insert(key, value);
                }
                None => {
                    self.slots.remove(&key);
                }
            }
        }
        self.rng = rng;
    }
}

/// Executes a [`Graph`] on a [`Device`], holding variable state, optimizer
/// slots, and the random stream.
///
/// # Examples
///
/// ```
/// use fathom_dataflow::{Device, Graph, Session};
/// use fathom_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new();
/// let x = g.placeholder("x", Shape::vector(3));
/// let two = g.constant(Tensor::scalar(2.0));
/// let y = g.mul(x, two);
/// let mut sess = Session::new(g, Device::cpu(1));
/// let out = sess.run(&[y], &[(x, Tensor::from(vec![1.0, 2.0, 3.0]))])?;
/// assert_eq!(out[0].data(), &[2.0, 4.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    pub(super) graph: Graph,
    device: Device,
    pool: ExecPool,
    pub(super) state: SessionState,
    /// Free list fed by the drivers' eager releases and drained by
    /// constant-fill tensor constructors while a run is in flight.
    recycler: Arc<BufferPool>,
    step: u64,
    tracing: bool,
    /// Armed fault schedule; probed once per executed op when present.
    fault: Option<Arc<FaultPlan>>,
    /// Armed numeric watchdog; inspected after every run, pre-commit.
    guardrail: Option<Guardrail>,
    /// Runs aborted (and rolled back) by the guardrail.
    guard_trips: u64,
    /// One-shot NaN poison: the next run fetching this node has that
    /// fetch overwritten with NaNs (chaos-soak divergence injection).
    poison: Option<NodeId>,
    trace: RunTrace,
    plan_cache: HashMap<Vec<NodeId>, Arc<Plan>>,
    /// GEMM operand-panel precision for eligible ops (DESIGN.md §18).
    precision: Precision,
    /// Armed int8 inference plan; consulted before the precision knob.
    pub(super) quant: Option<Arc<QuantPlan>>,
    /// Activation ranges accumulated by calibration runs (and restored
    /// from checkpoints), keyed by graph node index.
    pub(super) calib: Option<CalibrationRanges>,
    /// While set, runs record activation ranges and take the serial
    /// walk (recording needs exclusive session state per op).
    pub(super) calibrating: bool,
    /// Cumulative unified-runtime counters over committed runs.
    counters: RuntimeCounters,
    /// Recycler miss count at the last counter sample (delta base).
    last_misses: u64,
    /// Runtime steal count at the last counter sample (delta base).
    last_steals: u64,
    /// Runtime park count at the last counter sample (delta base).
    last_parks: u64,
}

impl Session {
    /// Creates a session, installing every variable's initial value.
    pub fn new(graph: Graph, device: Device) -> Self {
        Session::with_seed(graph, device, 0x5eed)
    }

    /// Creates a session with an explicit random seed for the sampling
    /// operations.
    pub fn with_seed(graph: Graph, device: Device, seed: u64) -> Self {
        let mut variables = HashMap::new();
        for (id, node) in graph.iter() {
            if let OpKind::Variable { init } = &node.kind {
                variables.insert(id, init.clone());
            }
        }
        let pool = device.pool();
        let (last_steals, last_parks) =
            pool.runtime().map_or((0, 0), |rt| (rt.steal_count(), rt.park_count()));
        Session {
            graph,
            device,
            pool,
            state: SessionState {
                variables,
                slots: HashMap::new(),
                rng: Rng::seeded(seed),
                journal_vars: HashMap::new(),
                journal_slots: HashMap::new(),
            },
            recycler: Arc::new(BufferPool::new()),
            step: 0,
            tracing: false,
            fault: None,
            guardrail: None,
            guard_trips: 0,
            poison: None,
            trace: RunTrace::new(),
            plan_cache: HashMap::new(),
            precision: Precision::default(),
            quant: None,
            calib: None,
            calibrating: false,
            counters: RuntimeCounters::default(),
            last_misses: 0,
            last_steals,
            last_parks,
        }
    }

    /// The graph this session executes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The session's device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Switches devices (e.g. to sweep intra-op thread counts or inter-op
    /// worker counts). Variable state is preserved; cached plans are
    /// dropped because they bake in per-op widths for the old device.
    pub fn set_device(&mut self, device: Device) {
        self.pool = device.pool();
        (self.last_steals, self.last_parks) =
            self.pool.runtime().map_or((0, 0), |rt| (rt.steal_count(), rt.park_count()));
        self.device = device;
        self.plan_cache.clear();
    }

    /// Cumulative unified-runtime counters (arena misses, steals, and
    /// wide/co-scheduled op decisions) over this session's committed
    /// runs.
    pub fn runtime_counters(&self) -> RuntimeCounters {
        self.counters
    }

    /// Selects the GEMM operand-panel precision. Under
    /// [`Precision::Bf16`], MatMul-family ops whose geometry
    /// [`fathom_tensor::kernels::gemm::select`] routes to the bf16 panels pack their operands
    /// as bf16 and accumulate in f32; everything else is
    /// untouched — convolution keeps f32 panels — and no plan depends
    /// on it.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// The session's GEMM panel precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Starts recording a [`TraceEvent`] per executed op.
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// Arms (or clears) a fault-injection plan. When set, every executed
    /// op probes [`crate::FaultSite::ExecOp`]; a firing `Panic` aborts the run
    /// with an "injected fault" panic and a firing `PoisonNan` replaces
    /// the op's output with NaNs. Both paths exercise the same recovery
    /// machinery real kernel failures do.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan;
    }

    /// Arms (or clears) a numeric [`Guardrail`]. While armed, every
    /// `run` is inspected after execution but *before* commit; a
    /// violation rolls the whole step back (variables, optimizer slots,
    /// RNG stream, and run counter) and returns
    /// [`ExecError::GuardTripped`], so a diverged step never taints the
    /// session.
    pub fn set_guardrail(&mut self, guardrail: Option<Guardrail>) {
        self.guardrail = guardrail;
    }

    /// The armed guardrail, if any.
    pub fn guardrail(&self) -> Option<&Guardrail> {
        self.guardrail.as_ref()
    }

    /// Number of runs aborted and rolled back by the guardrail.
    pub fn guard_trips(&self) -> u64 {
        self.guard_trips
    }

    /// Arms a one-shot divergence injection: the next `run` that fetches
    /// `node` has that fetched value overwritten with NaNs (state the run
    /// committed is untouched). The poison persists until a run actually
    /// fetches the node, then clears. Used by the chaos soak to provoke
    /// guardrail trips on demand.
    pub fn poison_next_fetch(&mut self, node: NodeId) {
        self.poison = Some(node);
    }

    /// First guardrail violation in this run's outputs, if any.
    fn guard_violation(&self, fetches: &[NodeId], out: &[Tensor]) -> Option<String> {
        let guard = self.guardrail.as_ref()?;
        for (&id, value) in fetches.iter().zip(out) {
            if guard.fetches_finite && value.data().iter().any(|v| !v.is_finite()) {
                return Some(format!("fetch {id} is non-finite"));
            }
            for &(watched, limit) in &guard.limits {
                if watched == id {
                    if let Some(&v) = value.data().iter().find(|v| v.abs() > limit) {
                        return Some(format!("fetch {id} value {v} exceeds limit {limit}"));
                    }
                }
            }
        }
        if guard.updates_finite {
            // The journal names exactly the variables this run mutated;
            // their post-update values are still staged (pre-commit).
            for id in self.state.journal_vars.keys() {
                if let Some(var) = self.state.variables.get(id) {
                    if var.data().iter().any(|v| !v.is_finite()) {
                        return Some(format!("variable {id} went non-finite"));
                    }
                }
            }
        }
        None
    }

    /// The raw state of the session's random stream, for checkpointing.
    pub fn rng_state(&self) -> [u64; 4] {
        self.state.rng.state()
    }

    /// Restores a random stream captured with [`Session::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.state.rng = Rng::from_state(state);
    }

    /// Overwrites the completed-`run` counter (checkpoint restore only —
    /// traced events and RNG-free reruns key off this value).
    pub fn set_run_counter(&mut self, step: u64) {
        self.step = step;
    }

    /// Every optimizer slot as `(apply node, slot name, value)`, sorted
    /// by `(node index, name)` so the iteration order — and therefore any
    /// serialization of it — is deterministic.
    pub fn optimizer_slots(&self) -> Vec<(NodeId, &'static str, &Tensor)> {
        let mut slots: Vec<(NodeId, &'static str, &Tensor)> =
            self.state.slots.iter().map(|(&(id, name), value)| (id, name, value)).collect();
        slots.sort_by(|a, b| (a.0.index(), a.1).cmp(&(b.0.index(), b.1)));
        slots
    }

    /// Drops every optimizer slot (checkpoint restore starts clean, then
    /// replays the checkpoint's slots one by one).
    pub fn clear_optimizer_slots(&mut self) {
        self.state.slots.clear();
    }

    /// Restores one optimizer slot captured by
    /// [`Session::optimizer_slots`]. The name must be one the executors
    /// use (`"momentum"`, `"ms"`, `"mom"`, `"t"`, `"m"`, `"v"`); the keys
    /// are interned so lookups during execution stay allocation-free.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the node is out of range
    /// or the slot name is unknown.
    pub fn restore_optimizer_slot(
        &mut self,
        id: NodeId,
        name: &str,
        value: Tensor,
    ) -> Result<(), String> {
        if id.index() >= self.graph.len() {
            return Err(format!("slot node {id} does not belong to this graph"));
        }
        let interned: &'static str = match name {
            "momentum" => "momentum",
            "ms" => "ms",
            "mom" => "mom",
            "t" => "t",
            "m" => "m",
            "v" => "v",
            other => return Err(format!("unknown optimizer slot name {other:?}")),
        };
        self.state.slots.insert((id, interned), value);
        Ok(())
    }

    /// Scales the learning rate of every `Apply*` node by `factor` (the
    /// guardrail's LR-backoff lever) and drops the cached plans, whose
    /// fused programs may bake in optimizer hyperparameters. Returns the
    /// number of nodes rescaled.
    pub fn scale_learning_rates(&mut self, factor: f32) -> usize {
        let scaled = self.graph.scale_apply_lrs(factor);
        if scaled > 0 {
            self.plan_cache.clear();
        }
        scaled
    }

    /// Stops recording and returns everything captured so far.
    pub fn take_trace(&mut self) -> RunTrace {
        self.tracing = false;
        std::mem::take(&mut self.trace)
    }

    /// Number of completed `run` calls.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Usage counters of the session's buffer recycler.
    pub fn recycle_stats(&self) -> RecycleStats {
        self.recycler.stats()
    }

    /// Current value of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotAVariable`] if `id` is not a variable of
    /// this graph.
    pub fn variable_value(&self, id: NodeId) -> Result<&Tensor, ExecError> {
        self.state.variables.get(&id).ok_or(ExecError::NotAVariable(id))
    }

    /// Overwrites a variable's value (used for target-network syncs in
    /// `deepq` and test setup).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotAVariable`] if `id` is not a variable, or
    /// [`ExecError::FeedShape`] if the shape differs.
    pub fn assign(&mut self, id: NodeId, value: Tensor) -> Result<(), ExecError> {
        let slot = self.state.variables.get_mut(&id).ok_or(ExecError::NotAVariable(id))?;
        if slot.shape() != value.shape() {
            return Err(ExecError::FeedShape {
                node: id,
                msg: format!("variable is {}, assigned {}", slot.shape(), value.shape()),
            });
        }
        *slot = value;
        Ok(())
    }

    /// Executes the subgraph needed for `fetches`, feeding placeholders
    /// from `feeds`, and returns the fetched values in order.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ids, missing or mis-shaped feeds,
    /// malformed labels, or `Apply*` ops whose target is not a variable.
    ///
    /// Feed and fetch validation (`UnknownNode`, `FeedShape`,
    /// `MissingFeed`) happens before any op executes and never mutates
    /// session state. A *runtime* failure mid-step (e.g. `BadLabels`, an
    /// injected fault, or a kernel panic) rolls the session back before
    /// the error (or panic) reaches the caller: every variable and
    /// optimizer slot mutated by the failed run is restored from the undo
    /// journal and the RNG stream is rewound, so the session is exactly
    /// as it was when the failed `run` began. A failed step is therefore
    /// a no-op — retry it, skip it, or checkpoint afterwards; the session
    /// is never tainted. This holds for both step drivers: on the pool,
    /// `Apply*` updates that committed before the abort was observed are
    /// undone by the same journal. A failed step also leaves nothing in
    /// the trace.
    pub fn run(&mut self, fetches: &[NodeId], feeds: &[(NodeId, Tensor)]) -> Result<Vec<Tensor>, ExecError> {
        let started = Instant::now();
        for &f in fetches {
            if f.index() >= self.graph.len() {
                return Err(ExecError::UnknownNode(f));
            }
        }
        let mut feed_map: HashMap<NodeId, &Tensor> = HashMap::with_capacity(feeds.len());
        for (id, value) in feeds {
            if id.index() >= self.graph.len() {
                return Err(ExecError::UnknownNode(*id));
            }
            let declared = self.graph.shape(*id);
            if declared != value.shape() {
                return Err(ExecError::FeedShape {
                    node: *id,
                    msg: format!("declared {declared}, fed {}", value.shape()),
                });
            }
            feed_map.insert(*id, value);
        }
        let plan = self.plan(fetches);
        // Every planned placeholder must be fed before any op runs, so a
        // bad feed set can never leave variables partially updated and
        // both drivers report the same (first-in-plan-order) error.
        for &id in &plan.order {
            if matches!(self.graph.node(id).kind, OpKind::Placeholder { .. })
                && !feed_map.contains_key(&id)
            {
                return Err(ExecError::MissingFeed(id));
            }
        }
        // Recovery point: the RNG snapshot plus the state journal filled
        // by `Apply*` ops lets a failed run (typed error *or* op panic)
        // be undone completely before it surfaces to the caller.
        let rng_snapshot = self.state.rng.clone();
        // The arena is live for the whole run — including commit and
        // rollback, whose journal tensors must return to it — so a
        // steady-state step touches the heap for no planned tensor.
        let recycler = Arc::clone(&self.recycler);
        let _arena = BufferPool::install(&recycler);
        let runtime = self.step_runtime().filter(|_| !self.calibrating).cloned();
        let step = Step {
            graph: &self.graph,
            plan: &plan,
            feeds: &feed_map,
            fetches,
            fault: self.fault.as_deref(),
            ctx: ExecCtx { precision: self.precision, quant: self.quant.as_deref() },
            timed: self.tracing,
        };
        let state = &mut self.state;
        let calib =
            self.calibrating.then(|| self.calib.get_or_insert_with(CalibrationRanges::new));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &runtime {
            Some(rt) => run_pooled(&step, state, rt, &recycler),
            None => run_serial(&step, state, calib),
        }));
        let done = match outcome {
            Ok(Ok(done)) => done,
            Ok(Err(err)) => {
                self.state.rollback(rng_snapshot);
                return Err(err);
            }
            Err(payload) => {
                self.state.rollback(rng_snapshot);
                std::panic::resume_unwind(payload);
            }
        };
        // The step epilogue, one for both drivers. Only a step that ran
        // to completion is traced; one the guardrail then trips keeps its
        // op events and adds a `GuardrailTrip` marker.
        if self.tracing {
            emit(&mut self.trace.events, &self.graph, &plan, &self.device, self.step);
            self.trace.total_nanos += started.elapsed().as_nanos() as f64;
            self.trace.steps += 1;
            self.trace.peak_live_bytes =
                self.trace.peak_live_bytes.max(done.peak_live_bytes as u64);
        }
        let mut out = done.fetched;
        if let Some(node) = self.poison {
            if let Some(pos) = fetches.iter().position(|&f| f == node) {
                let shape = out[pos].shape().clone();
                // Built unpooled (like every fetch) so the caller's
                // eventual drop never debits the arena.
                let nans = vec![f32::NAN; shape.num_elements()];
                out[pos] = Tensor::from_vec(nans, shape);
                self.poison = None;
            }
        }
        if let Some(reason) = self.guard_violation(fetches, &out) {
            // A tripped step must be a complete no-op, exactly like a
            // failed one: rewind state and RNG, leave the run counter
            // where it was, then surface a typed error.
            self.state.rollback(rng_snapshot);
            self.guard_trips += 1;
            if self.tracing {
                self.trace.events.push(TraceEvent {
                    node: fetches.first().copied().unwrap_or(NodeId(u32::MAX)),
                    op: "GuardrailTrip",
                    class: crate::op::OpClass::Optimization,
                    step: self.step,
                    nanos: 0.0,
                    cost: cost::OpCost { flops: 0.0, bytes: 0.0 },
                });
            }
            return Err(ExecError::GuardTripped(reason));
        }
        self.state.commit();
        self.step += 1;
        self.sample_counters(runtime.is_some().then_some(&*plan), done.inline_ops);
        Ok(out)
    }

    /// Convenience wrapper fetching a single node.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run1(&mut self, fetch: NodeId, feeds: &[(NodeId, Tensor)]) -> Result<Tensor, ExecError> {
        Ok(self.run(&[fetch], feeds)?.remove(0))
    }

    /// Folds one committed run's runtime-counter deltas into the session
    /// totals (and the live trace when recording). On a runtime shared
    /// between sessions (serve replicas) the steal and park deltas
    /// attribute anything in this run's window — including workers that
    /// went to sleep since the previous run — so fleet-wide values are
    /// approximate.
    fn sample_counters(&mut self, pooled_plan: Option<&Plan>, inline_ops: u64) {
        let misses = self.recycler.planned_misses();
        let allocations = misses.saturating_sub(self.last_misses);
        self.last_misses = misses;
        let (steals, parked) =
            self.pool.runtime().map_or((0, 0), |rt| (rt.steal_count(), rt.park_count()));
        let steal_count = steals.saturating_sub(self.last_steals);
        self.last_steals = steals;
        let parks = parked.saturating_sub(self.last_parks);
        self.last_parks = parked;
        let (wide_ops, coscheduled_ops) =
            pooled_plan.map_or((0, 0), |p| (p.wide_ops, p.cosched_ops));
        let sample = RuntimeCounters {
            allocations,
            arena_bytes: self.recycler.arena_bytes(),
            steal_count,
            wide_ops,
            coscheduled_ops,
            parks,
            inline_ops,
        };
        self.counters.merge(&sample);
        if self.tracing {
            self.trace.runtime.merge(&sample);
        }
    }

    /// The runtime this session's steps run on when the device
    /// co-schedules ops, which is what selects the pool driver (modeled
    /// devices report one inter-op worker).
    fn step_runtime(&self) -> Option<&Arc<Runtime>> {
        self.pool.runtime().filter(|_| self.device.inter_ops() > 1)
    }

    /// The execution plan for a fetch set, built on first use and cached.
    fn plan(&mut self, fetches: &[NodeId]) -> Arc<Plan> {
        if let Some(plan) = self.plan_cache.get(fetches) {
            return Arc::clone(plan);
        }
        let pooled = self.step_runtime().is_some();
        let plan =
            Arc::new(Plan::build(&self.graph, fetches, &self.pool, pooled, &self.recycler));
        self.plan_cache.insert(fetches.to_vec(), Arc::clone(&plan));
        plan
    }

    /// Collapses chains of pure elementwise ops into fused register
    /// programs, in place (see [`optimize::fuse_in_place`]). Every
    /// existing [`NodeId`] stays valid: fused-away interiors remain in
    /// the graph as unscheduled dead nodes, variables and their
    /// checkpoint order are untouched, and fused execution is bitwise
    /// identical to unfused. `keep` must cover every node the caller
    /// will still fetch *through a fused value* — typically the model's
    /// fetch handles — so their values stay materialized.
    ///
    /// # Panics
    ///
    /// Panics if a kept id does not belong to this session's graph.
    pub fn enable_fusion(&mut self, keep: &[NodeId]) -> optimize::FusionStats {
        self.enable_fusion_with(keep, optimize::FusionOptions::default())
    }

    /// [`Session::enable_fusion`] with explicit pass selection. GEMM
    /// epilogue fusion runs *first* so packed MatMul/Conv2D nodes claim
    /// their consumer chains; elementwise fusion then groups whatever
    /// remains (the claimed originals are unreachable dead nodes by
    /// then, so the passes never double-claim an op).
    ///
    /// # Panics
    ///
    /// Panics if a kept id does not belong to this session's graph.
    pub fn enable_fusion_with(
        &mut self,
        keep: &[NodeId],
        options: optimize::FusionOptions,
    ) -> optimize::FusionStats {
        let gemm_stats = if options.gemm_epilogues {
            optimize::fuse_gemm_epilogues(&mut self.graph, keep)
        } else {
            optimize::FusionStats::default()
        };
        let mut stats = optimize::fuse_in_place(&mut self.graph, keep);
        stats.gemm_groups = gemm_stats.gemm_groups;
        stats.gemm_ops = gemm_stats.gemm_ops;
        // Plans (and their cost estimates) were computed against the
        // unfused node kinds.
        self.plan_cache.clear();
        stats
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use fathom_tensor::Shape;

    #[test]
    fn feed_and_fetch() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s.run1(y, &[(x, Tensor::from(vec![1.0, -2.0, 3.0]))]).unwrap();
        assert_eq!(out.data(), &[-1.0, 2.0, -3.0]);
    }

    #[test]
    fn missing_feed_is_an_error() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu(1));
        assert_eq!(s.run(&[y], &[]), Err(ExecError::MissingFeed(x)));
    }

    #[test]
    fn feed_shape_is_validated() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let mut s = Session::new(g, Device::cpu(1));
        let err = s.run(&[x], &[(x, Tensor::zeros([2]))]).unwrap_err();
        assert!(matches!(err, ExecError::FeedShape { .. }));
    }

    #[test]
    fn constants_and_variables() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::from(vec![1.0, 2.0]));
        let v = g.variable("v", Tensor::from(vec![10.0, 20.0]));
        let sum = g.add_op(c, v);
        let mut s = Session::new(g, Device::cpu(1));
        assert_eq!(s.run1(sum, &[]).unwrap().data(), &[11.0, 22.0]);
        s.assign(v, Tensor::from(vec![0.0, 0.0])).unwrap();
        assert_eq!(s.run1(sum, &[]).unwrap().data(), &[1.0, 2.0]);
    }

    /// A tiny SGD step graph: returns (session, loss-ish fetch, apply).
    fn guarded_sgd() -> (Session, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![1.0, 1.0]));
        let grad = g.placeholder("grad", Shape::vector(2));
        let loss = g.sum_all(v);
        let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
        (Session::new(g, Device::cpu(1)), v, loss, apply)
    }

    #[test]
    fn guardrail_rolls_back_nonfinite_fetch() {
        let (mut s, v, loss, apply) = guarded_sgd();
        let grad = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("grad")).unwrap().0;
        s.set_guardrail(Some(Guardrail::finite()));
        let before = s.variable_value(v).unwrap().clone();
        let step_before = s.step();
        let err = s
            .run(&[loss, apply], &[(grad, Tensor::from(vec![f32::NAN, 0.0]))])
            .unwrap_err();
        assert!(matches!(err, ExecError::GuardTripped(_)), "got {err:?}");
        assert_eq!(s.variable_value(v).unwrap(), &before, "trip must roll variables back");
        assert_eq!(s.step(), step_before, "trip must rewind the run counter");
        assert_eq!(s.guard_trips(), 1);
        // Clean retry succeeds and commits.
        s.run(&[loss, apply], &[(grad, Tensor::from(vec![0.5, 0.5]))]).unwrap();
        assert_eq!(s.step(), step_before + 1);
        assert!((s.variable_value(v).unwrap().data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn guardrail_limit_trips_on_magnitude() {
        let (mut s, _v, loss, apply) = guarded_sgd();
        let grad = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("grad")).unwrap().0;
        s.set_guardrail(Some(Guardrail::finite().with_limit(loss, 1.0)));
        // Loss (sum of v) is 2.0 > 1.0: tripped even though everything is
        // finite.
        let err = s.run(&[loss, apply], &[(grad, Tensor::from(vec![0.0, 0.0]))]).unwrap_err();
        assert!(matches!(err, ExecError::GuardTripped(_)));
        // Raise the limit: passes.
        s.set_guardrail(Some(Guardrail::finite().with_limit(loss, 10.0)));
        s.run(&[loss, apply], &[(grad, Tensor::from(vec![0.0, 0.0]))]).unwrap();
    }

    #[test]
    fn guardrail_rng_rewinds_on_trip() {
        let mut g = Graph::new();
        let sample = g.random_normal(Shape::vector(4));
        let v = g.variable("v", Tensor::from(vec![1.0]));
        let grad = g.placeholder("grad", Shape::vector(1));
        let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        s.set_guardrail(Some(Guardrail::finite()));
        let rng_before = s.rng_state();
        let err = s.run(&[sample, apply], &[(grad, Tensor::from(vec![f32::NAN]))]).unwrap_err();
        assert!(matches!(err, ExecError::GuardTripped(_)));
        assert_eq!(s.rng_state(), rng_before, "trip must rewind the RNG stream");
        // Replaying with a clean gradient draws the same sample bits.
        let out = s.run(&[sample, apply], &[(grad, Tensor::from(vec![0.0]))]).unwrap();
        s.set_rng_state(rng_before);
        let replay = s.run(&[sample], &[]).unwrap();
        assert_eq!(out[0], replay[0]);
    }

    #[test]
    fn poison_waits_for_the_poisoned_fetch() {
        let (mut s, v, loss, apply) = guarded_sgd();
        let grad = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("grad")).unwrap().0;
        s.poison_next_fetch(loss);
        // A run that does not fetch the poisoned node is unaffected.
        s.run(&[apply], &[(grad, Tensor::from(vec![0.0, 0.0]))]).unwrap();
        // The next run fetching it sees NaN; committed state is untouched.
        let out = s.run(&[loss], &[]).unwrap();
        assert!(out[0].data().iter().all(|x| x.is_nan()));
        assert!(s.variable_value(v).unwrap().data().iter().all(|x| x.is_finite()));
        // One-shot: the poison cleared.
        let clean = s.run(&[loss], &[]).unwrap();
        assert!(clean[0].data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn optimizer_slots_round_trip() {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![0.0]));
        let grad = g.constant(Tensor::from(vec![1.0]));
        let apply = g.add(OpKind::ApplyAdam { lr: 0.1, beta1: 0.9, beta2: 0.999, epsilon: 1e-8 }, &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        s.run(&[apply], &[]).unwrap();
        s.run(&[apply], &[]).unwrap();
        let snapshot: Vec<(NodeId, &'static str, Tensor)> =
            s.optimizer_slots().into_iter().map(|(id, n, t)| (id, n, t.clone())).collect();
        assert_eq!(snapshot.len(), 3, "Adam keeps t/m/v slots");
        let var_snapshot = s.variable_value(v).unwrap().clone();
        let mut fresh = Session::new(s.graph().clone(), Device::cpu(1));
        fresh.assign(v, var_snapshot).unwrap();
        fresh.clear_optimizer_slots();
        for (id, name, value) in snapshot {
            fresh.restore_optimizer_slot(id, name, value).unwrap();
        }
        s.run(&[apply], &[]).unwrap();
        fresh.run(&[apply], &[]).unwrap();
        assert_eq!(
            s.variable_value(v).unwrap().data(),
            fresh.variable_value(v).unwrap().data(),
            "restored slots must continue the trajectory bitwise"
        );
        assert!(fresh.restore_optimizer_slot(v, "bogus", Tensor::scalar(0.0)).is_err());
    }

    #[test]
    fn scale_learning_rates_shrinks_the_step() {
        let (mut s, v, _loss, apply) = guarded_sgd();
        let grad = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("grad")).unwrap().0;
        assert_eq!(s.scale_learning_rates(0.5), 1);
        s.run(&[apply], &[(grad, Tensor::from(vec![1.0, 1.0]))]).unwrap();
        // lr was 0.1, now 0.05: v goes 1.0 -> 0.95.
        assert!((s.variable_value(v).unwrap().data()[0] - 0.95).abs() < 1e-6);
    }
}
