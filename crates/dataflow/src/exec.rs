//! The session: schedules and executes dataflow graphs.
//!
//! Operations are "the smallest schedulable unit" (paper §V-A). A
//! [`Session`] plans the fetched subgraph once (topological order,
//! per-node liveness, dependency counts, per-op widths, and a static
//! arena plan) and then executes it with one of two executors:
//!
//! * a **serial** walk in plan order, used when the device has a single
//!   inter-op worker or is a modeled (`SimCpu`/`SimGpu`) device, and
//! * a **work-stealing parallel** executor, used when the device
//!   advertises more than one inter-op worker
//!   ([`Device::cpu_inter_op`]): each op whose inputs become available
//!   is spawned as one task on the device's shared
//!   [`Runtime`](fathom_tensor::Runtime) — the *same* pool that executes
//!   intra-op kernel chunks, so there is no static split between
//!   inter-op and intra-op workers. Stateful ops (`Variable` reads,
//!   `Apply*` writes, RNG sampling) are chained in plan order and run
//!   only on the coordinating thread, so results are bitwise identical
//!   to the serial executor regardless of worker timing.
//!
//! At plan time the cost model decides, per op, whether to run **wide**
//! (the full intra-op width) or **co-scheduled** against independent
//! peers ([`crate::sched::chosen_width`]); both executors honor the same
//! per-op widths, which keeps them bitwise interchangeable. The plan
//! also compiles a **static arena**: per-size peak liveness over the
//! plan order prewarms the session's [`BufferPool`], so steady-state
//! steps perform zero heap allocations for planned tensors (the
//! [`Session::runtime_counters`] `allocations` field asserts this).
//! Both executors release intermediates eagerly at their last use; freed
//! buffers flow back to the arena via [`Tensor`]'s drop hook. When
//! tracing is enabled the session records one
//! [`crate::trace::TraceEvent`] per execution; inter-op overhead is kept
//! minimal — the `overhead_check` bench verifies the paper's "<1-2%
//! outside of operations" property.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fathom_tensor::kernels::conv as kconv;
use fathom_tensor::kernels::ctc as kctc;
use fathom_tensor::kernels::elementwise as kew;
use fathom_tensor::kernels::epilogue::Epilogue;
use fathom_tensor::kernels::gemm as kgemm;
use fathom_tensor::kernels::pool2d as kpool;
use fathom_tensor::kernels::quant::QuantizedGemm;
use fathom_tensor::kernels::reduce as kred;
use fathom_tensor::kernels::softmax as ksm;
use fathom_tensor::kernels::transform as ktf;
use fathom_tensor::{
    BufferPool, ExecPool, Latch, Precision, RecycleStats, Rng, Runtime, Task, Tensor,
};

use crate::cost;
use crate::device::Device;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::graph::{Graph, Node, NodeId};
use crate::op::{GemmOp, OpKind};
use crate::optimize;
use crate::sched;
use crate::trace::{RunTrace, RuntimeCounters, TraceEvent};

/// Errors produced while running a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A placeholder in the fetched subgraph was not fed.
    MissingFeed(NodeId),
    /// A fed value's shape disagrees with the placeholder's declaration.
    FeedShape {
        /// The placeholder.
        node: NodeId,
        /// Explanation of the mismatch.
        msg: String,
    },
    /// A fetch or feed id does not belong to the session's graph.
    UnknownNode(NodeId),
    /// An `Apply*` op's first input is not a `Variable` node.
    NotAVariable(NodeId),
    /// A label tensor contained an invalid entry.
    BadLabels(String),
    /// A numeric guardrail tripped after the step executed; the step was
    /// rolled back (see [`Session::set_guardrail`]).
    GuardTripped(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingFeed(n) => write!(f, "placeholder {n} was not fed"),
            ExecError::FeedShape { node, msg } => write!(f, "bad feed for {node}: {msg}"),
            ExecError::UnknownNode(n) => write!(f, "node {n} does not belong to this session's graph"),
            ExecError::NotAVariable(n) => write!(f, "node {n} is not a variable"),
            ExecError::BadLabels(msg) => write!(f, "invalid labels: {msg}"),
            ExecError::GuardTripped(msg) => {
                write!(f, "guardrail tripped ({msg}); the step was rolled back")
            }
        }
    }
}

impl std::error::Error for ExecError {}

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

/// A cached execution plan: topological order, per-node liveness, and the
/// dependency structure the parallel executor counts down at run time.
///
/// `indegree`, `consumers`, `use_count`, and `serial` are indexed by plan
/// position; `last_use` and `pos_of` by graph node index.
#[derive(Debug)]
struct Plan {
    order: Vec<NodeId>,
    /// For each graph node index, the plan position of its last consumer
    /// (its own position if nothing consumes it; `usize::MAX` for fetched
    /// nodes, which must outlive the run).
    last_use: Vec<usize>,
    /// Graph node index -> plan position (`usize::MAX` if unplanned).
    pos_of: Vec<usize>,
    /// Unmet-dependency count per position: one per input occurrence plus
    /// one per serialization-chain edge.
    indegree: Vec<u32>,
    /// Positions to notify when the op at a position completes (dataflow
    /// edges plus serialization-chain edges; duplicates are fine because
    /// increments and decrements are symmetric).
    consumers: Vec<Vec<u32>>,
    /// Times each position's value is consumed: input occurrences plus
    /// fetch occurrences. Zero means the value dies at its own position.
    use_count: Vec<u32>,
    /// Whether the op at a position must run on the coordinating thread,
    /// in plan order (see [`OpKind::needs_serial`]).
    serial: Vec<bool>,
    /// Intra-op width per position, decided at plan time by the cost
    /// model ([`sched::chosen_width`]). Both executors dispatch each
    /// op's kernels at exactly this width, so serial and parallel runs
    /// stay bitwise interchangeable.
    widths: Vec<usize>,
    /// The session pool viewed at each width `1..=full` (index
    /// `width - 1`), built once so dispatching an op never touches the
    /// runtime's shared reference count.
    width_pools: Vec<ExecPool>,
    /// Ops whose width equals the device's full intra-op width.
    wide_ops: u64,
    /// Ops molded narrower so independent peers co-schedule.
    cosched_ops: u64,
    /// The parallel executor's run-time tables, reused by every step of
    /// this plan (empty when the plan runs on the serial walk).
    scratch: Scratch,
}

impl Plan {
    /// The pool view the op at `pos` dispatches its kernels through.
    fn pool_for(&self, pos: usize) -> &ExecPool {
        &self.width_pools[self.widths[pos] - 1]
    }
}

/// Per-node activation ranges recorded by a calibration pass: graph node
/// index → per-k-channel max-abs of the GEMM's activation operand,
/// max-merged over every calibrated batch. A `BTreeMap` so iteration —
/// and therefore the checkpoint serialization of the ranges — is
/// deterministic.
pub type CalibrationRanges = std::collections::BTreeMap<u32, Vec<f32>>;

/// An inference-only int8 execution plan: one quantized GEMM per
/// eligible MatMul node, built by
/// [`Session::quantize_from_calibration`] from the graph's weights and
/// the calibrated activation ranges. Dispatch consults it before the
/// precision knob: a planned node runs `i8×i8→i32` with f32 dequant in
/// the writeback, everything else takes the session's usual path.
#[derive(Debug, Clone, Default)]
pub struct QuantPlan {
    /// Graph node index → quantized weights and scales.
    pub per_node: HashMap<u32, QuantizedGemm>,
}

/// Immutable per-run compute context threaded to every op dispatch: the
/// session's precision knob plus the quantized-inference plan, if any.
#[derive(Clone, Copy)]
struct ExecCtx<'a> {
    precision: Precision,
    quant: Option<&'a QuantPlan>,
}

/// How the planner assigns intra-op widths when the device co-schedules
/// ops ([`Device::cpu_inter_op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WidthPolicy {
    /// Every op gets the device's full intra-op width — the legacy
    /// statically-partitioned behavior, kept as the `ablation_runtime`
    /// baseline.
    Static,
    /// The cost model molds each op's width to its work and to how many
    /// independent peers could run beside it (see
    /// [`sched::chosen_width`]).
    #[default]
    Moldable,
}

/// The mutable state touched by stateful ops: variables, optimizer slots,
/// and the random stream. Split out of [`Session`] so the executors can
/// borrow it independently of the graph and pools.
///
/// The undo journal makes a failed run recoverable: before an `Apply*`
/// op first mutates a variable or optimizer slot within a run, the prior
/// value is recorded; if the run errors (or an op panics), [`Session::run`]
/// replays the journal so the session lands back in exactly the state it
/// had when the failed run began.
#[derive(Debug)]
struct SessionState {
    variables: HashMap<NodeId, Tensor>,
    slots: HashMap<(NodeId, &'static str), Tensor>,
    rng: Rng,
    /// Pre-mutation variable values for the in-flight run.
    journal_vars: HashMap<NodeId, Tensor>,
    /// Pre-mutation optimizer-slot values for the in-flight run
    /// (`None` = the slot did not exist yet).
    journal_slots: HashMap<(NodeId, &'static str), Option<Tensor>>,
}

impl SessionState {
    /// Records a variable's value before its first mutation this run.
    fn journal_variable(&mut self, id: NodeId) {
        if !self.journal_vars.contains_key(&id) {
            if let Some(v) = self.variables.get(&id) {
                let v = v.clone();
                self.journal_vars.insert(id, v);
            }
        }
    }

    /// Records an optimizer slot's value before its first mutation this run.
    fn journal_slot(&mut self, key: (NodeId, &'static str)) {
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
    graph: Graph,
    device: Device,
    pool: ExecPool,
    state: SessionState,
    /// Free list fed by the executors' eager releases and drained by
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
    /// Per-node static cost estimates, filled lazily on first traced run
    /// so tracing adds minimal inter-op overhead.
    cost_cache: Vec<Option<cost::OpCost>>,
    /// Width-assignment policy for co-scheduling devices.
    width_policy: WidthPolicy,
    /// GEMM operand-panel precision for eligible ops (DESIGN.md §18).
    precision: Precision,
    /// Armed int8 inference plan; consulted before the precision knob.
    quant: Option<Arc<QuantPlan>>,
    /// Activation ranges accumulated by calibration runs (and restored
    /// from checkpoints), keyed by graph node index.
    calib: Option<CalibrationRanges>,
    /// While set, runs record activation ranges and force the serial
    /// executor (recording needs exclusive session state per op).
    calibrating: bool,
    /// Cumulative unified-runtime counters over committed runs.
    counters: RuntimeCounters,
    /// Recycler miss count at the last counter sample (delta base).
    last_misses: u64,
    /// Runtime steal count at the last counter sample (delta base).
    last_steals: u64,
    /// Runtime park count at the last counter sample (delta base).
    last_parks: u64,
    /// Ops the latest parallel step ran by chain-following, folded into
    /// the counters when the step commits.
    step_inline_ops: u64,
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
            cost_cache: Vec::new(),
            width_policy: WidthPolicy::default(),
            precision: Precision::default(),
            quant: None,
            calib: None,
            calibrating: false,
            counters: RuntimeCounters::default(),
            last_misses: 0,
            last_steals,
            last_parks,
            step_inline_ops: 0,
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

    /// Selects how the planner assigns per-op intra-op widths on
    /// co-scheduling devices (the `ablation_runtime` A/B lever). Cached
    /// plans are dropped because they bake in the old policy's widths.
    pub fn set_width_policy(&mut self, policy: WidthPolicy) {
        if self.width_policy != policy {
            self.width_policy = policy;
            self.plan_cache.clear();
        }
    }

    /// Cumulative unified-runtime counters (arena misses, steals, and
    /// wide/co-scheduled op decisions) over this session's committed
    /// runs.
    pub fn runtime_counters(&self) -> RuntimeCounters {
        self.counters
    }

    /// Selects the GEMM operand-panel precision. Under
    /// [`Precision::Bf16`], MatMul-family ops whose geometry
    /// [`kgemm::select`] routes to the bf16 panels pack their operands
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

    /// Starts a calibration pass: until [`Session::finish_calibration`],
    /// every run records per-k-channel max-abs ranges of each eligible
    /// MatMul's activation operand (merged with any ranges already held,
    /// including checkpoint-restored ones). Calibration runs execute on
    /// the serial executor regardless of the device's inter-op width —
    /// recording mutates session state per op.
    pub fn begin_calibration(&mut self) {
        self.calibrating = true;
        if self.calib.is_none() {
            self.calib = Some(CalibrationRanges::new());
        }
    }

    /// Stops recording activation ranges and returns how many GEMM nodes
    /// have ranges (from this pass or restored earlier).
    pub fn finish_calibration(&mut self) -> usize {
        self.calibrating = false;
        self.calib.as_ref().map_or(0, |c| c.len())
    }

    /// The recorded (or restored) calibration ranges, if any.
    pub fn calibration_ranges(&self) -> Option<&CalibrationRanges> {
        self.calib.as_ref()
    }

    /// Installs calibration ranges captured elsewhere (checkpoint
    /// restore). Replaces any ranges currently held.
    pub fn set_calibration_ranges(&mut self, ranges: CalibrationRanges) {
        self.calib = Some(ranges);
    }

    /// Builds and arms the int8 inference plan from the graph's weights
    /// and the calibrated activation ranges: per-output-channel
    /// symmetric weight scales, one per-tensor activation scale (the max
    /// over the recorded channel ranges — a per-channel activation scale
    /// cannot be factored out of the i32 accumulation). Only MatMuls
    /// whose weight operand is a `Variable` or `Constant` quantize; a
    /// computed weight (attention-style) has no static tensor to
    /// quantize and keeps its float path. Returns the number of GEMMs
    /// quantized.
    ///
    /// # Errors
    ///
    /// Returns a description when no calibration ranges are held or no
    /// recorded node could be quantized.
    pub fn quantize_from_calibration(&mut self) -> Result<usize, String> {
        let ranges = self.calib.as_ref().ok_or("no calibration ranges recorded")?;
        let mut per_node = HashMap::new();
        for (&node_index, channel_max) in ranges {
            let id = NodeId(node_index);
            if id.index() >= self.graph.len() {
                continue;
            }
            let node = self.graph.node(id);
            let (transpose_b, weight_id) = match &node.kind {
                OpKind::MatMul { transpose_a: false, transpose_b } => {
                    (*transpose_b, node.inputs[1])
                }
                OpKind::GemmFused {
                    gemm: GemmOp::MatMul { transpose_a: false, transpose_b },
                    ..
                } => (*transpose_b, node.inputs[1]),
                _ => continue,
            };
            let weight = match &self.graph.node(weight_id).kind {
                // Quantize the *current* value, not the initializer.
                OpKind::Variable { .. } => match self.state.variables.get(&weight_id) {
                    Some(w) => w,
                    None => continue,
                },
                OpKind::Constant(w) => w,
                _ => continue,
            };
            if weight.shape().rank() != 2 {
                continue;
            }
            let (k, n) = if transpose_b {
                (weight.shape().dim(1), weight.shape().dim(0))
            } else {
                (weight.shape().dim(0), weight.shape().dim(1))
            };
            if channel_max.len() != k {
                continue;
            }
            let act_max = channel_max.iter().fold(0.0f32, |acc, &v| acc.max(v));
            per_node.insert(
                node_index,
                QuantizedGemm::from_weights(weight.data(), k, n, transpose_b, act_max),
            );
        }
        if per_node.is_empty() {
            return Err("calibration ranges matched no quantizable GEMM".to_string());
        }
        let count = per_node.len();
        self.quant = Some(Arc::new(QuantPlan { per_node }));
        Ok(count)
    }

    /// Drops the armed int8 plan; subsequent runs take the float paths.
    pub fn clear_quantization(&mut self) {
        self.quant = None;
    }

    /// Drops held calibration ranges along with any armed int8 plan —
    /// used before restoring a checkpoint so a stream without a
    /// calibration section yields an unquantized session rather than
    /// one quantized from stale ranges.
    pub fn clear_calibration(&mut self) {
        self.calib = None;
        self.quant = None;
    }

    /// The armed int8 inference plan, if any.
    pub fn quant_plan(&self) -> Option<&QuantPlan> {
        self.quant.as_deref()
    }

    /// Records the activation operand of an eligible GEMM node during a
    /// calibration run: per-k-channel max-abs, merged into the held
    /// ranges.
    fn record_calibration(&mut self, id: NodeId, values: &[Option<Tensor>]) {
        let node = self.graph.node(id);
        let act_id = match &node.kind {
            OpKind::MatMul { transpose_a: false, .. }
            | OpKind::GemmFused { gemm: GemmOp::MatMul { transpose_a: false, .. }, .. } => {
                node.inputs[0]
            }
            _ => return,
        };
        let Some(a) = values[act_id.index()].as_ref() else { return };
        if a.shape().rank() != 2 {
            return;
        }
        let k = a.shape().dim(1);
        if k == 0 {
            return;
        }
        let ranges = self.calib.get_or_insert_with(CalibrationRanges::new);
        let entry = ranges.entry(id.index() as u32).or_insert_with(|| vec![0.0; k]);
        if entry.len() != k {
            return;
        }
        for row in a.data().chunks_exact(k) {
            for (m, &v) in entry.iter_mut().zip(row) {
                *m = m.max(v.abs());
            }
        }
    }

    /// Starts recording a [`TraceEvent`] per executed op.
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// Arms (or clears) a fault-injection plan. When set, every executed
    /// op probes [`FaultSite::ExecOp`]; a firing `Panic` aborts the run
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
            self.cost_cache.clear();
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
    /// is never tainted. This holds for both executors: under the
    /// parallel scheduler, `Apply*` updates that committed before the
    /// abort was observed are undone by the same journal.
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
        // both executors report the same (first-in-plan-order) error.
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
        let step_snapshot = self.step;
        // The arena is live for the whole run — including commit and
        // rollback, whose journal tensors must return to it — so a
        // steady-state step touches the heap for no planned tensor.
        let recycler = Arc::clone(&self.recycler);
        let _arena = BufferPool::install(&recycler);
        let parallel = self.device.inter_ops() > 1
            && !self.device.is_modeled()
            && self.pool.runtime().is_some()
            && !self.calibrating;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if parallel {
                self.run_parallel(fetches, &feed_map, &plan, started)
            } else {
                self.run_serial(fetches, &feed_map, &plan, started)
            }
        }));
        match outcome {
            Ok(Ok(mut out)) => {
                if let Some(node) = self.poison {
                    if let Some(pos) = fetches.iter().position(|&f| f == node) {
                        let shape = out[pos].shape().clone();
                        // Built unpooled (like every fetch) so the
                        // caller's eventual drop never debits the arena.
                        let nans = vec![f32::NAN; shape.num_elements()];
                        out[pos] = Tensor::from_vec(nans, shape);
                        self.poison = None;
                    }
                }
                if let Some(reason) = self.guard_violation(fetches, &out) {
                    // A tripped step must be a complete no-op, exactly
                    // like a failed one: rewind state, RNG, and the run
                    // counter, then surface a typed error.
                    self.state.rollback(rng_snapshot);
                    self.step = step_snapshot;
                    self.guard_trips += 1;
                    if self.tracing {
                        self.trace.events.push(TraceEvent {
                            node: fetches.first().copied().unwrap_or(NodeId(u32::MAX)),
                            op: "GuardrailTrip",
                            class: crate::op::OpClass::Optimization,
                            step: step_snapshot,
                            nanos: 0.0,
                            cost: cost::OpCost { flops: 0.0, bytes: 0.0 },
                        });
                    }
                    return Err(ExecError::GuardTripped(reason));
                }
                self.state.commit();
                self.sample_counters(parallel.then_some(&*plan));
                Ok(out)
            }
            Ok(Err(err)) => {
                self.state.rollback(rng_snapshot);
                Err(err)
            }
            Err(payload) => {
                self.state.rollback(rng_snapshot);
                std::panic::resume_unwind(payload);
            }
        }
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
    fn sample_counters(&mut self, parallel_plan: Option<&Plan>) {
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
            parallel_plan.map_or((0, 0), |p| (p.wide_ops, p.cosched_ops));
        let sample = RuntimeCounters {
            allocations,
            arena_bytes: self.recycler.arena_bytes(),
            steal_count,
            wide_ops,
            coscheduled_ops,
            parks,
            inline_ops: std::mem::take(&mut self.step_inline_ops),
        };
        self.counters.merge(&sample);
        if self.tracing {
            self.trace.runtime.merge(&sample);
        }
    }

    /// Executes a plan one op at a time in plan order.
    fn run_serial(
        &mut self,
        fetches: &[NodeId],
        feed_map: &HashMap<NodeId, &Tensor>,
        plan: &Plan,
        started: Instant,
    ) -> Result<Vec<Tensor>, ExecError> {
        let recycler = Arc::clone(&self.recycler);
        let _guard = BufferPool::install(&recycler);
        let mut values: Vec<Option<Tensor>> = vec![None; self.graph.len()];
        // Liveness-based eager release: drop intermediates after their
        // last consumer runs, tracking the peak footprint as we go. The
        // drops return buffers to the installed arena — no explicit
        // recycler call on the hot path.
        let mut live_bytes: usize = 0;
        let mut peak_bytes: usize = 0;
        for (pos, &id) in plan.order.iter().enumerate() {
            let mut value = self.execute_node(id, feed_map, &values, plan.pool_for(pos))?;
            if let Some(action) = self.fault.as_ref().and_then(|f| f.check(FaultSite::ExecOp)) {
                apply_exec_fault(&action, id, &mut value);
            }
            live_bytes += value.len() * 4;
            peak_bytes = peak_bytes.max(live_bytes);
            values[id.index()] = Some(value);
            if plan.last_use[id.index()] == pos {
                // No consumer (pure side-effect node): free immediately.
                if let Some(dead) = values[id.index()].take() {
                    live_bytes -= dead.len() * 4;
                    drop(dead);
                }
            }
            for &input in &self.graph.node(id).inputs {
                if plan.last_use[input.index()] == pos {
                    if let Some(dead) = values[input.index()].take() {
                        live_bytes -= dead.len() * 4;
                        drop(dead);
                    }
                }
            }
        }
        let out = extract_fetches(fetches, &mut values);
        self.step += 1;
        if self.tracing {
            self.trace.total_nanos += started.elapsed().as_nanos() as f64;
            self.trace.steps += 1;
            self.trace.peak_live_bytes = self.trace.peak_live_bytes.max(peak_bytes as u64);
        }
        Ok(out)
    }

    /// Executes a plan on the device's shared work-stealing runtime.
    ///
    /// Each op's unmet-dependency count starts at [`Plan::indegree`];
    /// when a producer finishes it publishes its value and decrements
    /// its consumers' counts. The first pure consumer that reaches zero
    /// runs next *on the same thread* (chain-following: no queue round
    /// trip, and the value it reads is still in that core's cache); any
    /// further ones are queued as tasks on the [`Runtime`] — the same
    /// workers that claim intra-op kernel chunks, so an op molded wider
    /// than one thread shares its chunks with whichever workers are idle
    /// (moldable tasks; there is no static inter-op/intra-op worker
    /// split). A serial op that becomes ready is handed to the
    /// coordinating thread, which alone runs them; the serialization
    /// chain built at plan time guarantees at most one is ready at any
    /// moment, and in plan order, so variable reads/writes and RNG draws
    /// happen in exactly the order the serial executor would perform
    /// them. With no serial op ready the coordinator helps the runtime.
    fn run_parallel(
        &mut self,
        fetches: &[NodeId],
        feed_map: &HashMap<NodeId, &Tensor>,
        plan: &Plan,
        started: Instant,
    ) -> Result<Vec<Tensor>, ExecError> {
        let tracing = self.tracing;
        if tracing {
            self.fill_cost_cache(plan);
        }
        let total = plan.order.len();
        let rt =
            Arc::clone(self.pool.runtime().expect("parallel executor needs a runtime-backed pool"));
        let state = &mut self.state;
        let scratch = &plan.scratch;
        scratch.begin_step(plan);

        let frame = TaskFrame {
            rt: &rt,
            plan,
            scratch,
            graph: &self.graph,
            feed_map,
            fault: self.fault.clone(),
            precision: self.precision,
            quant: self.quant.as_deref(),
            recycler: Arc::clone(&self.recycler),
            tracing,
            serial_ready: AtomicUsize::new(NO_OP),
            completed: AtomicUsize::new(0),
            inline_ops: AtomicU64::new(0),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            panic_slot: Mutex::new(None),
            live_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            coordinator: std::thread::current(),
        };
        // In-flight tasks address the frame by raw pointer, so it must
        // stay pinned in this stack slot until every task retires:
        // `Runtime::wait` below proves that on the normal path, the guard
        // on the unwinding path.
        let guard = FrameGuard { frame: &frame };
        for (pos, (&deg, &serial)) in plan.indegree.iter().zip(&plan.serial).enumerate() {
            if deg == 0 {
                if serial {
                    // At most one: the head of the serialization chain.
                    frame.serial_ready.store(pos, Ordering::Release);
                } else {
                    frame.spawn_pure(pos);
                }
            }
        }
        // The coordinator owns the session state. Its first duty is the
        // serial op that is ready, if one is (the chain admits at most
        // one): those ops sit on the step's critical path and nobody else
        // may run them. Only with none ready does it help the runtime —
        // op tasks and kernel chunks alike, its own or (on a shared
        // runtime) a sibling session's — spinning briefly and then
        // parking when there is nothing to run. `finish` unparks it when
        // a serial op becomes ready or the last op completes, `fail` and
        // `trap` when the step aborts, and the runtime when work is
        // queued; an unpark that lands before the park leaves a token
        // that makes the park return immediately, so no wakeup is lost.
        let settled = || {
            frame.completed.load(Ordering::SeqCst) >= total || frame.abort.load(Ordering::SeqCst)
        };
        while !settled() {
            let pos = frame.serial_ready.swap(NO_OP, Ordering::AcqRel);
            if pos == NO_OP {
                rt.help_until(|| frame.serial_ready.load(Ordering::SeqCst) != NO_OP || settled());
                continue;
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                frame.run_chain(pos, Some(&mut *state), true);
            }));
            frame.trap(outcome);
        }
        // Aborted or not, every spawned task must retire before the
        // frame's borrows expire (aborted tasks exit early but still
        // count down the latch).
        rt.wait(&scratch.latch);
        std::mem::forget(guard);

        let TaskFrame { failure, panic_slot, peak_bytes, inline_ops, .. } = frame;
        if let Some(payload) = panic_slot.into_inner().expect("panic slot") {
            std::panic::resume_unwind(payload);
        }
        if let Some(err) = failure.into_inner().expect("failure mutex") {
            return Err(err);
        }
        // SAFETY: every task has retired, so this thread is the only one
        // touching the slots; fetched values are kept alive by their
        // fetch uses.
        let out: Vec<Tensor> =
            fetches.iter().map(|&f| unpooled_copy(unsafe { scratch.slots.get(f.index()) })).collect();
        for &f in fetches {
            // Dropping under the installed arena recycles the original.
            drop(unsafe { scratch.slots.take(f.index()) });
        }
        scratch.end_step();
        self.step_inline_ops = inline_ops.into_inner();
        if tracing {
            for (pos, &id) in plan.order.iter().enumerate() {
                let node = self.graph.node(id);
                push_trace_events(
                    &mut self.trace.events,
                    id,
                    node,
                    self.step,
                    f64::from_bits(scratch.op_nanos[pos].load(Ordering::Relaxed)),
                    self.cost_cache[id.index()].expect("cost cache pre-filled"),
                );
            }
        }
        self.step += 1;
        if tracing {
            self.trace.total_nanos += started.elapsed().as_nanos() as f64;
            self.trace.steps += 1;
            self.trace.peak_live_bytes =
                self.trace.peak_live_bytes.max(peak_bytes.load(Ordering::Relaxed) as u64);
        }
        Ok(out)
    }

    /// Topological execution plan for a fetch set (cached): liveness and
    /// dependency counts for the two executors, per-op intra-op widths
    /// from the cost model, and the static arena census the session's
    /// recycler is prewarmed with.
    fn plan(&mut self, fetches: &[NodeId]) -> Arc<Plan> {
        if let Some(plan) = self.plan_cache.get(fetches) {
            return Arc::clone(plan);
        }
        let graph = &self.graph;
        let mut needed = vec![false; graph.len()];
        let mut stack: Vec<NodeId> = fetches.to_vec();
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            stack.extend(graph.node(id).inputs.iter().copied());
        }
        // Insertion order is a valid topological order (append-only graph).
        let order: Vec<NodeId> = graph
            .iter()
            .filter(|(id, _)| needed[id.index()])
            .map(|(id, _)| id)
            .collect();
        let total = order.len();
        let mut pos_of = vec![usize::MAX; graph.len()];
        for (pos, &id) in order.iter().enumerate() {
            pos_of[id.index()] = pos;
        }
        let mut last_use = vec![0usize; graph.len()];
        let mut indegree = vec![0u32; total];
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut use_count = vec![0u32; total];
        let mut serial = vec![false; total];
        for (pos, &id) in order.iter().enumerate() {
            // A node with no consumers dies at its own position; later
            // consumers (always at higher positions) overwrite this.
            last_use[id.index()] = pos;
            serial[pos] = graph.node(id).kind.needs_serial();
            for &input in &graph.node(id).inputs {
                let ipos = pos_of[input.index()];
                indegree[pos] += 1;
                consumers[ipos].push(pos as u32);
                use_count[ipos] += 1;
                last_use[input.index()] = pos;
            }
        }
        // Chain stateful/RNG ops to each other in plan order so at most
        // one is ever ready: this pins the variable read/write and RNG
        // draw order to the serial executor's, making parallel runs
        // bitwise deterministic.
        let mut prev: Option<usize> = None;
        for (pos, &is_serial) in serial.iter().enumerate() {
            if is_serial {
                if let Some(p) = prev {
                    indegree[pos] += 1;
                    consumers[p].push(pos as u32);
                }
                prev = Some(pos);
            }
        }
        for &f in fetches {
            use_count[pos_of[f.index()]] += 1;
            last_use[f.index()] = usize::MAX;
        }
        // Longest-path depth per position over dataflow plus
        // serialization-chain edges (`consumers` holds both): positions
        // sharing a depth cannot depend on one another, so they are the
        // co-runnable set the moldable width rule divides the machine
        // between.
        let mut level = vec![0u32; total];
        for pos in 0..total {
            for &c in &consumers[pos] {
                let c = c as usize;
                level[c] = level[c].max(level[pos] + 1);
            }
        }
        // Per-op widths: on a co-scheduling device the cost model molds
        // each op to its work and to the peers of comparable work at its
        // depth; everywhere else every op gets the full intra-op width
        // (the legacy behavior, and the `WidthPolicy::Static` ablation
        // baseline). Both executors dispatch at exactly these widths, so
        // serial and parallel runs of the same plan stay bitwise
        // interchangeable.
        let full = self.pool.threads();
        let parallel_exec = self.device.inter_ops() > 1
            && !self.device.is_modeled()
            && self.pool.runtime().is_some();
        let molding = parallel_exec && full > 1 && self.width_policy == WidthPolicy::Moldable;
        let widths: Vec<usize> = if molding {
            let work: Vec<usize> = order
                .iter()
                .map(|&id| {
                    let node = graph.node(id);
                    let input_shapes: Vec<_> =
                        node.inputs.iter().map(|&i| graph.shape(i)).collect();
                    cost::estimate(node, &input_shapes).work_elements()
                })
                .collect();
            let mut by_level: Vec<Vec<usize>> = Vec::new();
            for (pos, &l) in level.iter().enumerate() {
                let l = l as usize;
                if by_level.len() <= l {
                    by_level.resize_with(l + 1, Vec::new);
                }
                by_level[l].push(work[pos]);
            }
            for works in &mut by_level {
                works.sort_unstable();
            }
            (0..total)
                .map(|pos| {
                    let peers = sched::comparable_peers(&by_level[level[pos] as usize], work[pos]);
                    sched::chosen_width(work[pos], peers, full, sched::SPLIT_GRAIN)
                })
                .collect()
        } else {
            vec![full; total]
        };
        let width_pools: Vec<ExecPool> = (1..=full).map(|w| self.pool.with_width(w)).collect();
        let wide_ops = widths.iter().filter(|&&w| w == full).count() as u64;
        let cosched_ops = total as u64 - wide_ops;
        // Static arena census: per exact buffer size, how many tensors
        // must be provisioned so one step of this plan allocates
        // nothing. On the serial executor the walk mirrors plan-order
        // eager release (a value dies when its last consumer runs;
        // fetched values live to the end), giving the exact plan-order
        // peak. The parallel executor runs ops in whatever order the
        // pool's workers reach them, so *any* two same-sized tensors of
        // the step may overlap in time — the only schedule-independent
        // bound is the total number created per step, and that is what
        // the census counts there (skipping the release walk).
        // Kernel-internal temporaries the census cannot see ride on the
        // plan slack, the miss-driven cap growth, and the dynamic
        // fallback.
        let mut live: HashMap<usize, usize> = HashMap::new();
        let mut peak: HashMap<usize, usize> = HashMap::new();
        let mut freed = vec![false; graph.len()];
        for (pos, &id) in order.iter().enumerate() {
            let len = graph.shape(id).num_elements();
            if len > 0 {
                let l = live.entry(len).or_insert(0);
                *l += 1;
                let p = peak.entry(len).or_insert(0);
                *p = (*p).max(*l);
            }
            if parallel_exec {
                continue;
            }
            if last_use[id.index()] == pos && len > 0 && !freed[id.index()] {
                freed[id.index()] = true;
                *live.get_mut(&len).expect("made live above") -= 1;
            }
            for &input in &graph.node(id).inputs {
                if last_use[input.index()] == pos && !freed[input.index()] {
                    freed[input.index()] = true;
                    let ilen = graph.shape(input).num_elements();
                    if ilen > 0 {
                        *live.get_mut(&ilen).expect("produced before use") -= 1;
                    }
                }
            }
        }
        let mut census: Vec<(usize, usize)> = peak.into_iter().collect();
        census.sort_unstable();
        self.recycler.apply_plan(&census);
        let scratch =
            if parallel_exec { Scratch::new(graph.len(), total) } else { Scratch::new(0, 0) };
        let plan = Arc::new(Plan {
            order,
            last_use,
            pos_of,
            indegree,
            consumers,
            use_count,
            serial,
            widths,
            width_pools,
            wide_ops,
            cosched_ops,
            scratch,
        });
        self.plan_cache.insert(fetches.to_vec(), Arc::clone(&plan));
        plan
    }

    /// Fills the static cost cache for every planned node, so traced
    /// parallel runs never touch the cache concurrently.
    fn fill_cost_cache(&mut self, plan: &Plan) {
        if self.cost_cache.is_empty() {
            self.cost_cache = vec![None; self.graph.len()];
        }
        for &id in &plan.order {
            if self.cost_cache[id.index()].is_none() {
                let node = self.graph.node(id);
                let input_shapes: Vec<_> = node.inputs.iter().map(|&i| self.graph.shape(i)).collect();
                self.cost_cache[id.index()] = Some(cost::estimate(node, &input_shapes));
            }
        }
    }

    /// Executes one node serially and (if tracing) records its event.
    fn execute_node(
        &mut self,
        id: NodeId,
        feeds: &HashMap<NodeId, &Tensor>,
        values: &[Option<Tensor>],
        pool: &ExecPool,
    ) -> Result<Tensor, ExecError> {
        let started = Instant::now();
        if self.calibrating {
            self.record_calibration(id, values);
        }
        let ctx = ExecCtx { precision: self.precision, quant: self.quant.as_deref() };
        let value = dispatch_op(
            &self.graph,
            pool,
            id,
            feeds,
            |n| values[n.index()].as_ref().expect("input executed before use"),
            Some(&mut self.state),
            ctx,
        )?;
        if self.tracing {
            if self.cost_cache.is_empty() {
                self.cost_cache = vec![None; self.graph.len()];
            }
            let op_cost = match self.cost_cache[id.index()] {
                Some(c) => c,
                None => {
                    let node = self.graph.node(id);
                    let input_shapes: Vec<_> =
                        node.inputs.iter().map(|&i| self.graph.shape(i)).collect();
                    let c = cost::estimate(node, &input_shapes);
                    self.cost_cache[id.index()] = Some(c);
                    c
                }
            };
            let node = self.graph.node(id);
            let nanos = match &self.device {
                Device::Cpu { .. } => started.elapsed().as_nanos() as f64,
                Device::SimCpu { threads, model } => model.model_nanos(
                    started.elapsed().as_nanos() as f64,
                    op_cost,
                    *threads,
                    node.kind.uses_intra_op_pool(),
                ),
                Device::SimGpu(model) => model.model_nanos(&node.kind, op_cost),
            };
            push_trace_events(&mut self.trace.events, id, node, self.step, nanos, op_cost);
        }
        Ok(value)
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
        // Plans and cost estimates were computed against the unfused
        // node kinds.
        self.plan_cache.clear();
        self.cost_cache.clear();
        stats
    }
}

/// Appends the trace event(s) for one executed op.
///
/// A [`OpKind::Fused`] node expands into one event per constituent
/// instruction — each carrying the original elementwise op's name and
/// class C, with the measured duration and cost apportioned by the
/// instructions' static flop weights (remainder on the last event, so
/// per-step sums are exact). An [`OpKind::GemmFused`] node likewise
/// expands into one event for the GEMM root (its original `MatMul` /
/// `Conv2D` name and class) plus one class-C event per epilogue
/// instruction. Profiles over fused runs therefore keep reporting
/// constituent op types, and the paper's class breakdown remains
/// comparable before/after fusion.
fn push_trace_events(
    events: &mut Vec<TraceEvent>,
    id: NodeId,
    node: &Node,
    step: u64,
    nanos: f64,
    op_cost: cost::OpCost,
) {
    use crate::op::OpClass;
    match &node.kind {
        OpKind::Fused(program) => {
            let parts: Vec<(&'static str, OpClass, f64)> = program
                .instrs
                .iter()
                .map(|instr| {
                    (
                        instr.op.name(),
                        OpClass::ElementwiseArithmetic,
                        instr.op.flops_per_elem(instr.args.len()),
                    )
                })
                .collect();
            push_apportioned(events, id, step, nanos, op_cost, &parts);
        }
        OpKind::GemmFused { gemm, epilogue } => {
            let elems = node.shape.num_elements() as f64;
            let (root_op, root_class) = match gemm {
                GemmOp::MatMul { .. } => ("MatMul", OpClass::MatrixOps),
                GemmOp::Conv2D(_) => ("Conv2D", OpClass::Convolution),
            };
            let mut parts = Vec::with_capacity(epilogue.instrs.len() + 1);
            let ep_flops: f64 = epilogue
                .instrs
                .iter()
                .map(|i| i.op.flops_per_elem(i.args.len()) * elems)
                .sum();
            // The root's weight is whatever the cost model attributed to
            // the GEMM itself (total minus the epilogue's share).
            parts.push((root_op, root_class, (op_cost.flops - ep_flops).max(0.0)));
            for instr in &epilogue.instrs {
                parts.push((
                    instr.op.name(),
                    OpClass::ElementwiseArithmetic,
                    instr.op.flops_per_elem(instr.args.len()) * elems,
                ));
            }
            push_apportioned(events, id, step, nanos, op_cost, &parts);
        }
        _ => events.push(TraceEvent {
            node: id,
            op: node.kind.name(),
            class: node.kind.class(),
            step,
            nanos,
            cost: op_cost,
        }),
    }
}

/// Splits one measured op across `parts` by static flop weight, with the
/// remainder on the last event so per-step sums stay exact.
fn push_apportioned(
    events: &mut Vec<TraceEvent>,
    id: NodeId,
    step: u64,
    nanos: f64,
    op_cost: cost::OpCost,
    parts: &[(&'static str, crate::op::OpClass, f64)],
) {
    let total: f64 = parts.iter().map(|p| p.2).sum();
    let count = parts.len();
    let (mut nanos_left, mut flops_left, mut bytes_left) = (nanos, op_cost.flops, op_cost.bytes);
    for (k, &(op, class, weight)) in parts.iter().enumerate() {
        let (n, f, b) = if k + 1 == count {
            (nanos_left, flops_left, bytes_left)
        } else {
            let frac = if total > 0.0 { weight / total } else { 1.0 / count as f64 };
            (nanos * frac, op_cost.flops * frac, op_cost.bytes * frac)
        };
        nanos_left -= n;
        flops_left -= f;
        bytes_left -= b;
        events.push(TraceEvent {
            node: id,
            op,
            class,
            step,
            nanos: n,
            cost: cost::OpCost { flops: f, bytes: b },
        });
    }
}

/// "No plan position": the empty value of [`TaskFrame::serial_ready`].
const NO_OP: usize = usize::MAX;

/// Shared state of one in-flight parallel step. Queued op tasks address
/// the frame by raw pointer (see [`TaskFrame::spawn_pure`]), so
/// `run_parallel` pins it in one stack slot until the latch confirms
/// every task has retired.
struct TaskFrame<'a> {
    /// The device's work-stealing runtime; op tasks and their kernel
    /// chunks share its workers.
    rt: &'a Arc<Runtime>,
    plan: &'a Plan,
    /// The plan's reusable run-time tables: value slots, dependency and
    /// use counters, and the latch counting in-flight op tasks (closed
    /// means no task can still hold a pointer into the frame).
    scratch: &'a Scratch,
    graph: &'a Graph,
    feed_map: &'a HashMap<NodeId, &'a Tensor>,
    fault: Option<Arc<FaultPlan>>,
    /// The session's precision knob, forwarded to every dispatch.
    precision: Precision,
    /// The session's armed int8 plan, forwarded to every dispatch.
    quant: Option<&'a QuantPlan>,
    /// The session arena, installed on whichever worker runs each task
    /// so eager releases recycle no matter where an op lands.
    recycler: Arc<BufferPool>,
    tracing: bool,
    /// The ready serial op, or [`NO_OP`]; only the coordinator takes it.
    /// One word is a whole queue here: the plan's serialization chain
    /// makes each serial op wait for the previous one to finish, so at
    /// most one is ever ready and not yet run.
    serial_ready: AtomicUsize,
    completed: AtomicUsize,
    /// Ops that ran by chain-following: on the thread that made them
    /// ready, without passing through a queue.
    inline_ops: AtomicU64,
    abort: AtomicBool,
    failure: Mutex<Option<ExecError>>,
    /// A panic raised by an op is caught on the executing thread and
    /// re-raised on the coordinator after the latch closes: letting it
    /// unwind through a worker would tear down the shared runtime.
    panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Live and peak intermediate bytes, maintained only when tracing.
    live_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    /// The coordinating thread, unparked when a serial op becomes ready,
    /// when the last op completes and when the step aborts.
    coordinator: std::thread::Thread,
}

impl TaskFrame<'_> {
    /// Queues the pure op at `pos` as one task on the shared runtime.
    fn spawn_pure(&self, pos: usize) {
        /// Runs the op at `pos` of the frame at `ctx`, then whatever
        /// chain of consumers it makes ready.
        unsafe fn run(ctx: *const (), pos: usize) {
            // SAFETY: see `spawn_pure`; the latch keeps the frame pinned
            // until `done` below.
            let frame = unsafe { &*ctx.cast::<TaskFrame<'_>>() };
            // The coordinator may leave (and the frame die) the moment
            // the latch closes, so the task keeps the latch alive itself
            // and `done` is its last act.
            let latch = Arc::clone(&frame.scratch.latch);
            {
                let _arena = BufferPool::install(&frame.recycler);
                let on_coordinator = std::thread::current().id() == frame.coordinator.id();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    frame.run_chain(pos, None, on_coordinator);
                }));
                frame.trap(outcome);
            }
            latch.done();
        }
        // The latch must cover the task before it is queued.
        self.scratch.latch.add(1);
        // SAFETY: the frame outlives every queued task — the coordinator
        // blocks on the latch before the frame leaves its stack slot
        // (`Runtime::wait` on the normal path, `FrameGuard` when
        // unwinding) — and everything a task reaches through it is
        // shared through atomics, mutexes or the slot protocol.
        self.rt.spawn(unsafe { Task::new(run, (self as *const TaskFrame<'_>).cast(), pos) });
    }

    /// Runs the op at `pos` — a serial one when `state` is given — and
    /// then follows the chain: each op's first newly ready pure consumer
    /// runs next on this thread. On the coordinator the chain is cut as
    /// soon as a serial op is ready — only this thread can run that one,
    /// so the rest of the chain goes to the queue for someone else.
    fn run_chain(&self, pos: usize, state: Option<&mut SessionState>, on_coordinator: bool) {
        let mut next = self.run_op(pos, state);
        let mut ran = 1usize;
        while let Some(pos) = next {
            if on_coordinator && self.serial_ready.load(Ordering::Acquire) != NO_OP {
                self.spawn_pure(pos);
                break;
            }
            ran += 1;
            next = self.run_op(pos, None);
        }
        if ran > 1 {
            self.inline_ops.fetch_add(ran as u64 - 1, Ordering::Relaxed);
        }
        self.retire(ran);
    }

    /// Counts `ops` finished ops into the step's total — once per chain,
    /// not per op, to keep the shared counter's cache line out of the
    /// per-op path — and wakes the coordinator when the step is complete.
    /// An aborted step never completes; `fail`/`trap` wake it instead.
    fn retire(&self, ops: usize) {
        if self.completed.fetch_add(ops, Ordering::SeqCst) + ops == self.plan.order.len() {
            self.coordinator.unpark();
        }
    }

    /// Executes the op at `pos` at its planned width — with exclusive
    /// access to the session state when it is a serial op, which only
    /// the coordinator runs — and returns the consumer to run next on
    /// this thread, if it made one ready.
    fn run_op(&self, pos: usize, state: Option<&mut SessionState>) -> Option<usize> {
        if self.abort.load(Ordering::Acquire) {
            return None;
        }
        let id = self.plan.order[pos];
        let t0 = self.tracing.then(Instant::now);
        let ctx = ExecCtx { precision: self.precision, quant: self.quant };
        // SAFETY (the `slots.get`): every input slot was published by its
        // producer before the dependency count that released this op
        // reached zero, and stays alive until this op completes.
        let resolve = |n: NodeId| unsafe { self.scratch.slots.get(n.index()) };
        match dispatch_op(self.graph, self.plan.pool_for(pos), id, self.feed_map, resolve, state, ctx) {
            Ok(mut value) => {
                if let Some(action) = self.fault.as_ref().and_then(|f| f.check(FaultSite::ExecOp)) {
                    apply_exec_fault(&action, id, &mut value);
                }
                if let Some(t0) = t0 {
                    let nanos = t0.elapsed().as_nanos() as f64;
                    self.scratch.op_nanos[pos].store(nanos.to_bits(), Ordering::Relaxed);
                }
                self.finish(pos, id, value)
            }
            Err(err) => {
                self.fail(err);
                None
            }
        }
    }

    /// Runs on whichever thread produced `value` for position `pos`:
    /// publishes the value, releases inputs whose uses are exhausted, and
    /// releases consumers whose dependency count reaches zero — a serial
    /// one to the coordinator, the first pure one to the caller (the
    /// return value, to run next on this thread), further pure ones to
    /// the queue.
    fn finish(&self, pos: usize, id: NodeId, value: Tensor) -> Option<usize> {
        let plan = self.plan;
        let scratch = self.scratch;
        let bytes = value.len() * 4;
        if self.tracing {
            let now_live = self.live_bytes.fetch_add(bytes, Ordering::AcqRel) + bytes;
            self.peak_bytes.fetch_max(now_live, Ordering::Relaxed);
        }
        if plan.use_count[pos] == 0 {
            // Nothing consumes or fetches this value: dead on arrival.
            // The drop recycles it through the installed arena.
            if self.tracing {
                self.live_bytes.fetch_sub(bytes, Ordering::AcqRel);
            }
            drop(value);
        } else {
            // SAFETY: this thread is the slot's only producer and no
            // consumer reads it before the fan-out below releases them.
            unsafe { scratch.slots.set(id.index(), value) };
        }
        for &input in &self.graph.node(id).inputs {
            let ipos = plan.pos_of[input.index()];
            if scratch.remaining[ipos].fetch_sub(1, Ordering::AcqRel) == 1 {
                // SAFETY: the last consumer has completed, so no
                // reference into this slot can still be alive, and the
                // AcqRel counter chain orders all of their reads before
                // this take.
                if let Some(dead) = unsafe { scratch.slots.take(input.index()) } {
                    if self.tracing {
                        self.live_bytes.fetch_sub(dead.len() * 4, Ordering::AcqRel);
                    }
                    drop(dead);
                }
            }
        }
        let mut next = None;
        let mut serial_released = false;
        for &c in &plan.consumers[pos] {
            let c = c as usize;
            if scratch.indegree[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                if plan.serial[c] {
                    self.serial_ready.store(c, Ordering::SeqCst);
                    serial_released = true;
                } else if next.is_none() {
                    next = Some(c);
                } else {
                    self.spawn_pure(c);
                }
            }
        }
        if serial_released {
            self.coordinator.unpark();
        }
        next
    }

    /// Records the first typed error and aborts the step.
    fn fail(&self, err: ExecError) {
        let mut slot = self.failure.lock().expect("failure mutex");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.abort.store(true, Ordering::SeqCst);
        self.coordinator.unpark();
    }

    /// Routes an op panic through the abort path (see `panic_slot`).
    fn trap(&self, result: std::thread::Result<()>) {
        if let Err(payload) = result {
            let mut slot = self.panic_slot.lock().expect("panic slot");
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            self.abort.store(true, Ordering::SeqCst);
            self.coordinator.unpark();
        }
    }
}

/// Unwind insurance for [`TaskFrame`]: if the coordinator unwinds while
/// tasks are in flight, aborts the step and blocks until the latch closes
/// so no task outlives the frame it points into — without helping, since
/// running arbitrary tasks while unwinding risks a second panic. Forgotten
/// on the normal path, after `Runtime::wait` has proven the same thing.
struct FrameGuard<'a, 'b> {
    frame: &'a TaskFrame<'b>,
}

impl Drop for FrameGuard<'_, '_> {
    fn drop(&mut self) {
        self.frame.abort.store(true, Ordering::SeqCst);
        self.frame.scratch.latch.block();
    }
}

/// The parallel executor's per-plan run-time tables. A step used to
/// allocate all of these; they now live with the cached plan and are
/// reset in place, so a steady-state step allocates none of them.
/// Exclusive use is guaranteed by `Session::run` taking `&mut self`: one
/// step of one session is in flight at a time.
#[derive(Debug)]
struct Scratch {
    /// Node values, by graph node index.
    slots: SlotTable,
    /// Unmet-dependency count per plan position (counted down at run
    /// time; an op is released when its count hits zero).
    indegree: Vec<AtomicU32>,
    /// Remaining uses per plan position (eager release when exhausted).
    remaining: Vec<AtomicU32>,
    /// Per-position op durations (f64 bits), written only when tracing.
    op_nanos: Vec<AtomicU64>,
    /// Counts in-flight op tasks of the current step.
    latch: Arc<Latch>,
    /// Set from `begin_step` to `end_step`: still set at the next
    /// `begin_step` means the last step aborted or unwound and may have
    /// left values in the slots.
    dirty: AtomicBool,
}

impl Scratch {
    /// Tables for a plan over `positions` ops of a graph of `nodes`
    /// nodes.
    fn new(nodes: usize, positions: usize) -> Self {
        Scratch {
            slots: SlotTable::new(nodes),
            indegree: (0..positions).map(|_| AtomicU32::new(0)).collect(),
            remaining: (0..positions).map(|_| AtomicU32::new(0)).collect(),
            op_nanos: (0..positions).map(|_| AtomicU64::new(0)).collect(),
            latch: Arc::new(Latch::new(0)),
            dirty: AtomicBool::new(false),
        }
    }

    /// Resets the counters to the plan's and, after a step that did not
    /// end cleanly, empties the slots (under the caller's installed
    /// arena, so the leftovers recycle).
    fn begin_step(&self, plan: &Plan) {
        if self.dirty.swap(true, Ordering::AcqRel) {
            for idx in 0..self.slots.cells.len() {
                // SAFETY: no step is in flight, so nothing else can
                // reach the slots.
                drop(unsafe { self.slots.take(idx) });
            }
        }
        for (live, &planned) in self.indegree.iter().zip(&plan.indegree) {
            live.store(planned, Ordering::Relaxed);
        }
        for (live, &planned) in self.remaining.iter().zip(&plan.use_count) {
            live.store(planned, Ordering::Relaxed);
        }
    }

    /// Marks a clean end: every slot has been emptied by its last use or
    /// by fetch extraction.
    fn end_step(&self) {
        self.dirty.store(false, Ordering::Release);
    }
}

/// Node-value table shared between scheduler threads. Soundness rests on
/// the dependency counts: a slot is written exactly once (by its
/// producer, before any consumer is released), read only while its
/// remaining-use count is positive, and taken only after the count hits
/// zero — so no two threads ever touch a cell concurrently.
#[derive(Debug)]
struct SlotTable {
    cells: Vec<UnsafeCell<Option<Tensor>>>,
}

// SAFETY: see the type's docs; every access goes through the unsafe
// methods below, whose contracts state the exclusion each one needs.
unsafe impl Sync for SlotTable {}

impl SlotTable {
    fn new(len: usize) -> Self {
        SlotTable { cells: (0..len).map(|_| UnsafeCell::new(None)).collect() }
    }

    /// # Safety
    ///
    /// Caller must be the cell's unique producer, before consumers run.
    unsafe fn set(&self, idx: usize, value: Tensor) {
        *self.cells[idx].get() = Some(value);
    }

    /// # Safety
    ///
    /// Caller must hold an outstanding use (remaining-use count > 0).
    unsafe fn get(&self, idx: usize) -> &Tensor {
        (*self.cells[idx].get()).as_ref().expect("input executed before use")
    }

    /// # Safety
    ///
    /// Caller must have observed the remaining-use count reach zero, or
    /// otherwise be the only thread that can reach the cell.
    unsafe fn take(&self, idx: usize) -> Option<Tensor> {
        (*self.cells[idx].get()).take()
    }
}

/// Copies fetched values out of the value table as *unpooled* tensors
/// and recycles the originals. Callers hold fetches arbitrarily long
/// (and may drop them on threads with no arena installed), so handing
/// out a pooled buffer would drain the session's static arena by one
/// buffer per fetch per step; the copy keeps steady-state steps
/// allocation-free for planned tensors.
fn extract_fetches(fetches: &[NodeId], values: &mut [Option<Tensor>]) -> Vec<Tensor> {
    let out = fetches
        .iter()
        .map(|&f| unpooled_copy(values[f.index()].as_ref().expect("fetched node kept alive")))
        .collect();
    for &f in fetches {
        // Dropping under the installed arena recycles the original.
        values[f.index()] = None;
    }
    out
}

/// A copy of `v` whose buffer does not belong to any arena.
fn unpooled_copy(v: &Tensor) -> Tensor {
    Tensor::from_vec(v.data().to_vec(), v.shape().clone())
}

/// Applies a fired [`FaultSite::ExecOp`] fault to a freshly computed op
/// value: `Panic` aborts the run (the caller's recovery machinery rolls
/// the session back), `PoisonNan` overwrites the value with NaNs to
/// model silent numerical corruption. Byte- and serve-level actions are
/// inert at exec sites.
fn apply_exec_fault(action: &FaultAction, id: NodeId, value: &mut Tensor) {
    match action {
        FaultAction::Panic => panic!("injected fault: op panic at node {id}"),
        FaultAction::PoisonNan => {
            for v in value.data_mut() {
                *v = f32::NAN;
            }
        }
        _ => {}
    }
}

/// Resolves the variable an `Apply*` node updates.
fn variable_target(graph: &Graph, state: &SessionState, apply: NodeId) -> Result<NodeId, ExecError> {
    let var_id = graph.node(apply).inputs[0];
    if state.variables.contains_key(&var_id) {
        Ok(var_id)
    } else {
        Err(ExecError::NotAVariable(var_id))
    }
}

/// `op(a) * op(b)` for node `id`, with `epilogue` (a program and its
/// operand slices) applied if given: through the node's int8 plan when
/// the session has one, else on the engine the GEMM kernel selects for
/// the geometry and the session's precision.
#[allow(clippy::too_many_arguments)]
fn run_matmul(
    ctx: ExecCtx<'_>,
    id: NodeId,
    a: &Tensor,
    b: &Tensor,
    transpose_a: bool,
    transpose_b: bool,
    epilogue: Option<(&Epilogue, &[&[f32]])>,
    pool: &ExecPool,
) -> Tensor {
    let quantized = (!transpose_a)
        .then(|| ctx.quant.and_then(|q| q.per_node.get(&(id.index() as u32))))
        .flatten();
    match quantized {
        // f32 dequant lands in the writeback; a fused epilogue then
        // applies to the dequantized output, exactly as on the float
        // paths.
        Some(qg) => qg.matmul_fused(a, epilogue, pool),
        None => kgemm::matmul(a, b, transpose_a, transpose_b, ctx.precision, epilogue, pool),
    }
}

/// Computes one node's value. `resolve` maps an input id to its computed
/// tensor; `state` must be `Some` for ops where [`OpKind::needs_serial`]
/// is true (the schedulers guarantee those run with exclusive access to
/// the session state, on one thread, in plan order). `ctx` carries the
/// session's precision knob and int8 plan; MatMul-family dispatch
/// consults the plan first, then the knob, then takes the f32 path.
#[allow(clippy::too_many_lines)]
fn dispatch_op<'v, F>(
    graph: &Graph,
    pool: &ExecPool,
    id: NodeId,
    feeds: &HashMap<NodeId, &Tensor>,
    resolve: F,
    mut state: Option<&mut SessionState>,
    ctx: ExecCtx<'_>,
) -> Result<Tensor, ExecError>
where
    F: Fn(NodeId) -> &'v Tensor,
{
    let node = graph.node(id);
    let inputs = &node.inputs;
    let input = |i: usize| -> &'v Tensor { resolve(inputs[i]) };
    fn take_state<'a>(state: &mut Option<&'a mut SessionState>) -> &'a mut SessionState {
        state.take().expect("stateful op scheduled with session state")
    }
    let mut serial_state = || take_state(&mut state);
    let out = match &node.kind {
        OpKind::Placeholder { .. } => {
            (*feeds.get(&id).ok_or(ExecError::MissingFeed(id))?).clone()
        }
        OpKind::Variable { .. } => serial_state().variables[&id].clone(),
        OpKind::Constant(t) => t.clone(),
        OpKind::Identity | OpKind::StopGradient => input(0).clone(),

        OpKind::MatMul { transpose_a, transpose_b } => {
            run_matmul(ctx, id, input(0), input(1), *transpose_a, *transpose_b, None, pool)
        }

        // Convolution is the GEMM engine under a patch view of its
        // activation operand: one call per op, f32 panels at any session
        // precision.
        OpKind::Conv2D(spec) => kconv::conv2d(input(0), input(1), *spec, None, pool),
        OpKind::Conv2DBackpropInput { spec, input_shape } => {
            kconv::conv2d_backprop_input(input_shape, input(0), input(1), *spec, pool)
        }
        OpKind::Conv2DBackpropFilter { spec, filter_shape } => {
            kconv::conv2d_backprop_filter(input(0), filter_shape, input(1), *spec, pool)
        }
        OpKind::MaxPool(spec) => kpool::max_pool(input(0), *spec, pool),
        OpKind::MaxPoolGrad(spec) => kpool::max_pool_grad(input(0), input(1), *spec, pool),
        OpKind::AvgPool(spec) => kpool::avg_pool(input(0), *spec, pool),
        OpKind::AvgPoolGrad { spec, input_shape } => {
            kpool::avg_pool_grad(input_shape, input(0), *spec, pool)
        }

        // Class C: the standalone kernel of the kind's op table row.
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Maximum | OpKind::Pow
        | OpKind::Greater | OpKind::GreaterEqual | OpKind::Equal | OpKind::Select
        | OpKind::Neg | OpKind::Exp | OpKind::Log | OpKind::Sqrt | OpKind::Square
        | OpKind::Tanh | OpKind::Sigmoid | OpKind::Relu | OpKind::ReluGrad | OpKind::TanhGrad
        | OpKind::SigmoidGrad | OpKind::AddN => {
            let op = node.kind.class_c().expect("class-C kinds have a table row");
            let tensors: Vec<&Tensor> = (0..inputs.len()).map(input).collect();
            kew::eval(op, &tensors, pool)
        }
        OpKind::Fused(program) => {
            let tensors: Vec<&Tensor> = (0..inputs.len()).map(input).collect();
            program.eval(&tensors, pool)
        }
        // GEMM with the epilogue applied in the microkernel writeback.
        // Inputs are [a, b, operands...]. A matmul whose runtime shape
        // `gemm::select` leaves to the row kernel applies the program as
        // one flat pass instead, bitwise-identically.
        OpKind::GemmFused { gemm, epilogue } => {
            let operands: Vec<&[f32]> = (2..inputs.len()).map(|i| input(i).data()).collect();
            let fused = Some((epilogue, operands.as_slice()));
            match gemm {
                GemmOp::MatMul { transpose_a, transpose_b } => {
                    run_matmul(ctx, id, input(0), input(1), *transpose_a, *transpose_b, fused, pool)
                }
                GemmOp::Conv2D(spec) => kconv::conv2d(input(0), input(1), *spec, fused, pool),
            }
        }

        OpKind::Sum { axis, keep_dims } => match axis {
            Some(a) => kred::reduce_axis(input(0), *a, kred::ReduceKind::Sum, *keep_dims, pool),
            None => kred::reduce_all_sum(input(0), pool),
        },
        OpKind::Mean { axis, keep_dims } => match axis {
            Some(a) => kred::reduce_axis(input(0), *a, kred::ReduceKind::Mean, *keep_dims, pool),
            None => kred::reduce_all_mean(input(0), pool),
        },
        OpKind::MaxReduce { axis, keep_dims } => {
            kred::reduce_axis(input(0), *axis, kred::ReduceKind::Max, *keep_dims, pool)
        }
        OpKind::Softmax => ksm::softmax(input(0), pool),
        OpKind::LogSoftmax => ksm::log_softmax(input(0), pool),
        OpKind::SoftmaxGrad => ksm::softmax_grad(input(0), input(1), pool),
        OpKind::SoftmaxCrossEntropy => ksm::softmax_cross_entropy(input(0), input(1), pool).0,
        OpKind::SoftmaxCrossEntropyGrad => {
            ksm::softmax_cross_entropy(input(0), input(1), pool).1
        }
        OpKind::CtcLoss { blank } => {
            let labels = decode_padded_labels(input(1), graph.shape(id).rank(), *blank)?;
            Tensor::scalar(kctc::ctc_loss(input(0), &labels, *blank, pool).0)
        }
        OpKind::CtcLossGrad { blank } => {
            let labels = decode_padded_labels(input(1), 0, *blank)?;
            kctc::ctc_loss(input(0), &labels, *blank, pool).1
        }
        OpKind::Tile { reps } => ktf::tile(input(0), reps, pool),

        OpKind::StandardRandomNormal { shape, mean, std } => {
            Tensor::randn(shape.clone(), *mean, *std, &mut serial_state().rng)
        }
        OpKind::RandomUniform { shape, lo, hi } => {
            Tensor::rand_uniform(shape.clone(), *lo, *hi, &mut serial_state().rng)
        }
        OpKind::DropoutMask { rate } => {
            let st = serial_state();
            let keep = 1.0 / (1.0 - rate);
            let mut mask = Tensor::zeros(input(0).shape().clone());
            let rate = *rate;
            for v in mask.data_mut() {
                *v = if st.rng.uniform() < rate { 0.0 } else { keep };
            }
            mask
        }

        OpKind::ApplyGradientDescent { lr } => {
            let st = serial_state();
            let var_id = variable_target(graph, st, id)?;
            st.journal_variable(var_id);
            let grad = input(1);
            let lr = *lr;
            let var = st.variables.get_mut(&var_id).expect("checked above");
            for (v, g) in var.data_mut().iter_mut().zip(grad.data()) {
                *v -= lr * g;
            }
            var.clone()
        }
        OpKind::ApplyMomentum { lr, momentum } => {
            let st = serial_state();
            let var_id = variable_target(graph, st, id)?;
            st.journal_variable(var_id);
            st.journal_slot((id, "momentum"));
            let grad = input(1);
            let (lr, momentum) = (*lr, *momentum);
            let accum = st
                .slots
                .entry((id, "momentum"))
                .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
            for (m, g) in accum.data_mut().iter_mut().zip(grad.data()) {
                *m = momentum * *m + g;
            }
            let var = st.variables.get_mut(&var_id).expect("checked above");
            for (v, m) in var.data_mut().iter_mut().zip(accum.data()) {
                *v -= lr * m;
            }
            var.clone()
        }
        OpKind::ApplyRmsProp { lr, decay, momentum, epsilon } => {
            let st = serial_state();
            let var_id = variable_target(graph, st, id)?;
            st.journal_variable(var_id);
            st.journal_slot((id, "ms"));
            st.journal_slot((id, "mom"));
            let grad = input(1);
            let (lr, decay, momentum, epsilon) = (*lr, *decay, *momentum, *epsilon);
            let ms = st
                .slots
                .entry((id, "ms"))
                .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
            for (m, g) in ms.data_mut().iter_mut().zip(grad.data()) {
                *m = decay * *m + (1.0 - decay) * g * g;
            }
            let ms = ms.clone();
            let mom = st
                .slots
                .entry((id, "mom"))
                .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
            for ((mo, g), m) in mom.data_mut().iter_mut().zip(grad.data()).zip(ms.data()) {
                *mo = momentum * *mo + lr * g / (m.sqrt() + epsilon);
            }
            let var = st.variables.get_mut(&var_id).expect("checked above");
            for (v, mo) in var.data_mut().iter_mut().zip(mom.data()) {
                *v -= mo;
            }
            var.clone()
        }
        OpKind::ApplyAdam { lr, beta1, beta2, epsilon } => {
            let st = serial_state();
            let var_id = variable_target(graph, st, id)?;
            st.journal_variable(var_id);
            st.journal_slot((id, "t"));
            st.journal_slot((id, "m"));
            st.journal_slot((id, "v"));
            let grad = input(1);
            let (lr, beta1, beta2, epsilon) = (*lr, *beta1, *beta2, *epsilon);
            let t_slot = st.slots.entry((id, "t")).or_insert_with(|| Tensor::scalar(0.0));
            let t = t_slot.scalar_value() + 1.0;
            *t_slot = Tensor::scalar(t);
            let m = st
                .slots
                .entry((id, "m"))
                .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
            for (mv, g) in m.data_mut().iter_mut().zip(grad.data()) {
                *mv = beta1 * *mv + (1.0 - beta1) * g;
            }
            let m = m.clone();
            let v2 = st
                .slots
                .entry((id, "v"))
                .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
            for (vv, g) in v2.data_mut().iter_mut().zip(grad.data()) {
                *vv = beta2 * *vv + (1.0 - beta2) * g * g;
            }
            let bc1 = 1.0 - beta1.powf(t);
            let bc2 = 1.0 - beta2.powf(t);
            let var = st.variables.get_mut(&var_id).expect("checked above");
            for ((v, mv), vv) in var.data_mut().iter_mut().zip(m.data()).zip(v2.data()) {
                let m_hat = mv / bc1;
                let v_hat = vv / bc2;
                *v -= lr * m_hat / (v_hat.sqrt() + epsilon);
            }
            var.clone()
        }
        OpKind::Group => Tensor::scalar(0.0),

        OpKind::Reshape(shape) => input(0).clone().reshaped(shape.clone()),
        OpKind::Transpose { perm } => ktf::transpose(input(0), perm, pool),
        OpKind::Concat { axis } => {
            let tensors: Vec<&Tensor> = (0..inputs.len()).map(input).collect();
            ktf::concat(&tensors, *axis, pool)
        }
        OpKind::Slice { axis, start, len } => ktf::slice_axis(input(0), *axis, *start, *len, pool),
        OpKind::Gather => ktf::gather_rows(input(0), input(1), pool),
        OpKind::ScatterAddRows { vocab, dim } => {
            ktf::scatter_add_rows(*vocab, *dim, input(0), input(1))
        }
        OpKind::ShapeOf => {
            let dims: Vec<f32> = input(0).shape().dims().iter().map(|&d| d as f32).collect();
            Tensor::from(dims)
        }
    };
    Ok(out)
}

/// Decodes a `[batch, max_len]` label tensor padded with `-1` into per-item
/// label sequences.
fn decode_padded_labels(labels: &Tensor, _rank_hint: usize, blank: usize) -> Result<Vec<Vec<usize>>, ExecError> {
    let batch = labels.shape().dim(0);
    let max_len = labels.shape().dim(1);
    let mut out = Vec::with_capacity(batch);
    for b in 0..batch {
        let mut seq = Vec::new();
        for l in 0..max_len {
            let v = labels.at(&[b, l]);
            if v < 0.0 {
                break;
            }
            let v = v as usize;
            if v == blank {
                return Err(ExecError::BadLabels(format!(
                    "label {v} equals the blank symbol at [{b}, {l}]"
                )));
            }
            seq.push(v);
        }
        out.push(seq);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn sgd_apply_updates_variable() {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![1.0, 1.0]));
        let grad = g.constant(Tensor::from(vec![0.5, -0.5]));
        let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        s.run(&[apply], &[]).unwrap();
        let v_now = s.variable_value(v).unwrap();
        assert!((v_now.data()[0] - 0.95).abs() < 1e-6);
        assert!((v_now.data()[1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![0.0]));
        let grad = g.constant(Tensor::from(vec![1.0]));
        let apply = g.add(OpKind::ApplyMomentum { lr: 1.0, momentum: 0.5 }, &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        s.run(&[apply], &[]).unwrap(); // velocity 1.0, v = -1.0
        s.run(&[apply], &[]).unwrap(); // velocity 1.5, v = -2.5
        assert!((s.variable_value(v).unwrap().data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn rmsprop_normalizes_step_size() {
        // With a constant gradient, RMSProp steps approach lr/sqrt(g^2)*g
        // = lr * sign(g) as ms converges; verify the variable decreases.
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![5.0]));
        let grad = g.constant(Tensor::from(vec![2.0]));
        let apply = g.add(
            OpKind::ApplyRmsProp { lr: 0.1, decay: 0.9, momentum: 0.0, epsilon: 1e-8 },
            &[v, grad],
        );
        let mut s = Session::new(g, Device::cpu(1));
        let mut prev = 5.0;
        for _ in 0..10 {
            s.run(&[apply], &[]).unwrap();
            let now = s.variable_value(v).unwrap().data()[0];
            assert!(now < prev);
            prev = now;
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (v - 3)^2 with Adam using graph-built gradient 2(v-3).
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![0.0]));
        let target = g.constant(Tensor::from(vec![3.0]));
        let diff = g.sub(v, target);
        let two = g.constant(Tensor::scalar(2.0));
        let grad = g.mul(diff, two);
        let apply = g.add(
            OpKind::ApplyAdam { lr: 0.1, beta1: 0.9, beta2: 0.999, epsilon: 1e-8 },
            &[v, grad],
        );
        let mut s = Session::new(g, Device::cpu(1));
        for _ in 0..200 {
            s.run(&[apply], &[]).unwrap();
        }
        let now = s.variable_value(v).unwrap().data()[0];
        assert!((now - 3.0).abs() < 0.05, "v = {now}");
    }

    #[test]
    fn tracing_captures_events() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 4));
        let y = g.matmul(x, x);
        let z = g.relu(y);
        let mut s = Session::new(g, Device::cpu(1));
        s.enable_tracing();
        s.run(&[z], &[(x, Tensor::ones([4, 4]))]).unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.steps, 1);
        let ops: Vec<&str> = trace.events.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["Placeholder", "MatMul", "Relu"]);
        assert!(trace.events[1].cost.flops > 0.0);
    }

    #[test]
    fn sim_gpu_produces_identical_values_with_modeled_times() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(8, 8));
        let y = g.matmul(x, x);
        let feeds = Tensor::filled([8, 8], 0.5);
        let mut cpu = Session::new(g.clone(), Device::cpu(1));
        let mut gpu = Session::new(g, Device::sim_gpu());
        gpu.enable_tracing();
        let a = cpu.run1(y, &[(x, feeds.clone())]).unwrap();
        let b = gpu.run1(y, &[(x, feeds)]).unwrap();
        assert_eq!(a, b);
        let trace = gpu.take_trace();
        // Modeled durations must include the launch overhead.
        assert!(trace.events.iter().all(|e| e.nanos >= 1_500.0));
    }

    #[test]
    fn random_ops_are_deterministic_per_seed() {
        let mut g = Graph::new();
        let r = g.random_normal([16]);
        let mut s1 = Session::with_seed(g.clone(), Device::cpu(1), 99);
        let mut s2 = Session::with_seed(g, Device::cpu(1), 99);
        assert_eq!(s1.run1(r, &[]).unwrap(), s2.run1(r, &[]).unwrap());
    }

    #[test]
    fn dropout_mask_statistics() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(10_000));
        let mask = g.dropout_mask(x, 0.25);
        let mut s = Session::new(g, Device::cpu(1));
        let m = s.run1(mask, &[(x, Tensor::zeros([10_000]))]).unwrap();
        let zeros = m.data().iter().filter(|&&v| v == 0.0).count();
        let kept = m.data().iter().find(|&&v| v != 0.0).copied().unwrap();
        assert!((zeros as f32 / 10_000.0 - 0.25).abs() < 0.03);
        assert!((kept - 1.0 / 0.75).abs() < 1e-6);
    }

    #[test]
    fn plan_executes_only_needed_nodes() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(2));
        let used = g.neg(x);
        let unused = g.placeholder("unused", Shape::vector(9));
        let _dead = g.exp(unused);
        let mut s = Session::new(g, Device::cpu(1));
        s.enable_tracing();
        // Running `used` must not require feeding `unused`.
        s.run1(used, &[(x, Tensor::zeros([2]))]).unwrap();
        let trace = s.take_trace();
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn eager_release_keeps_peak_memory_below_sum_of_intermediates() {
        // A long chain of equally-sized intermediates: with eager release
        // the peak is a small multiple of one tensor, not chain_len of them.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(10_000));
        let mut node = x;
        for _ in 0..50 {
            node = g.tanh(node);
        }
        let mut s = Session::new(g, Device::cpu(1));
        s.enable_tracing();
        s.run1(node, &[(x, Tensor::zeros([10_000]))]).unwrap();
        let trace = s.take_trace();
        let one_tensor = 10_000 * 4;
        assert!(trace.peak_live_bytes > 0);
        assert!(
            (trace.peak_live_bytes as usize) <= 4 * one_tensor,
            "peak {} should be a few tensors, not the whole chain ({})",
            trace.peak_live_bytes,
            51 * one_tensor
        );
    }

    #[test]
    fn fetched_and_reused_values_survive_release() {
        // x is consumed early but also fetched; y reuses an early value.
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let a = g.neg(x);
        let b = g.exp(a);
        let c = g.add_op(b, a); // `a` is consumed again after `b`
        let out = {
            let mut s = Session::new(g, Device::cpu(1));
            s.run(&[c, a, x], &[(x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0]))]).unwrap()
        };
        assert_eq!(out[1].data(), &[-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(out[2].data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!((out[0].data()[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn duplicate_fetches_clone_only_the_extras() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s.run(&[y, y], &[(x, Tensor::from(vec![1.0, 2.0, 3.0]))]).unwrap();
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0].data(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn recycler_reuses_buffers_across_runs() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4096));
        let mut node = x;
        for _ in 0..4 {
            node = g.tanh(node);
        }
        let mut s = Session::new(g, Device::cpu(1));
        let feed = Tensor::filled([4096], 0.5);
        s.run1(node, &[(x, feed.clone())]).unwrap();
        let first = s.recycle_stats();
        assert!(first.returned > 0, "freed intermediates must reach the pool");
        s.run1(node, &[(x, feed)]).unwrap();
        let second = s.recycle_stats();
        assert!(second.hits > first.hits, "second run must draw from the pool");
    }

    #[test]
    fn parallel_executor_matches_serial_results() {
        // A graph with parallel branches, RNG, and an optimizer update:
        // every worker count must produce bitwise-identical results.
        fn build() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
            let mut g = Graph::new();
            let x = g.placeholder("x", Shape::matrix(16, 16));
            let v = g.variable("v", Tensor::filled([16, 16], 0.1));
            let noise = g.random_normal([16, 16]);
            let a = g.matmul(x, v);
            let b = g.tanh(x);
            let c = g.add_op(a, b);
            let d = g.add_op(c, noise);
            let loss = g.mean_all(d);
            let grads = crate::grad::gradients(&mut g, loss, &[v]);
            let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.05 }, &[v, grads[0]]);
            (g, x, v, loss, apply)
        }
        let feed = Tensor::filled([16, 16], 0.25);
        let mut reference: Option<(Tensor, Tensor)> = None;
        for inter_ops in [1usize, 2, 4, 8] {
            let (g, x, v, loss, apply) = build();
            let device = if inter_ops == 1 {
                Device::cpu(1)
            } else {
                Device::cpu_inter_op(1, inter_ops)
            };
            let mut s = Session::with_seed(g, device, 7);
            let mut last_loss = Tensor::scalar(0.0);
            for _ in 0..3 {
                let out = s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
                last_loss = out.into_iter().next().unwrap();
            }
            let var = s.variable_value(v).unwrap().clone();
            match &reference {
                None => reference = Some((last_loss, var)),
                Some((ref_loss, ref_var)) => {
                    assert_eq!(&last_loss, ref_loss, "loss diverged at {inter_ops} workers");
                    assert_eq!(&var, ref_var, "variables diverged at {inter_ops} workers");
                }
            }
        }
    }

    #[test]
    fn steady_state_steps_allocate_nothing_for_planned_tensors() {
        // The plan's census prewarms the arena and planned misses grow
        // the retention caps, so the per-step miss delta converges to
        // zero on both executors. Warm-up length is interleaving-
        // dependent (kernel temporaries can set late concurrency
        // records), so the assertion is existential: within the step
        // budget the session must reach four consecutive steps that
        // allocate nothing for planned tensors.
        for device in [Device::cpu(1), Device::cpu_inter_op(1, 2)] {
            let mut g = Graph::new();
            let x = g.placeholder("x", Shape::matrix(16, 16));
            let v = g.variable("v", Tensor::filled([16, 16], 0.1));
            let noise = g.random_normal([16, 16]);
            let a = g.matmul(x, v);
            let b = g.add_op(a, noise);
            let loss = g.mean_all(b);
            let grads = crate::grad::gradients(&mut g, loss, &[v]);
            let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.05 }, &[v, grads[0]]);
            let mut s = Session::with_seed(g, device.clone(), 7);
            let feed = Tensor::filled([16, 16], 0.25);
            let (mut quiet, mut last, mut spent) = (0u32, 0u64, 0usize);
            while spent < 40 && quiet < 4 {
                s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
                spent += 1;
                let now = s.runtime_counters().allocations;
                quiet = if now == last { quiet + 1 } else { 0 };
                last = now;
            }
            let counters = s.runtime_counters();
            assert!(counters.arena_bytes > 0, "the plan must pin an arena ({device:?})");
            assert!(
                quiet >= 4,
                "no allocation-free steady state within {spent} step(s) ({device:?})"
            );
        }
    }

    #[test]
    fn width_policies_agree_bitwise_and_report_their_decisions() {
        // Moldable vs Static widths change only where kernel chunks run,
        // never what they compute: same seed, same device, bitwise-equal
        // training — with the decision counters telling the two apart.
        fn train(policy: WidthPolicy) -> (Tensor, Tensor, RuntimeCounters) {
            let mut g = Graph::new();
            let x = g.placeholder("x", Shape::matrix(16, 16));
            let v = g.variable("v", Tensor::filled([16, 16], 0.1));
            let a = g.matmul(x, v);
            let b = g.tanh(x);
            let c = g.add_op(a, b);
            let loss = g.mean_all(c);
            let grads = crate::grad::gradients(&mut g, loss, &[v]);
            let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.05 }, &[v, grads[0]]);
            let mut s = Session::with_seed(g, Device::cpu_inter_op(2, 2), 7);
            s.set_width_policy(policy);
            let feed = Tensor::filled([16, 16], 0.25);
            let mut last = Tensor::scalar(0.0);
            for _ in 0..3 {
                let out = s.run(&[loss, apply], &[(x, feed.clone())]).unwrap();
                last = out.into_iter().next().unwrap();
            }
            let var = s.variable_value(v).unwrap().clone();
            (last, var, s.runtime_counters())
        }
        let (loss_m, var_m, counters_m) = train(WidthPolicy::Moldable);
        let (loss_s, var_s, counters_s) = train(WidthPolicy::Static);
        assert_eq!(loss_m, loss_s, "width policy must not change the loss bits");
        assert_eq!(var_m, var_s, "width policy must not change the variable bits");
        assert_eq!(counters_s.coscheduled_ops, 0, "static widths are never molded");
        assert!(counters_s.wide_ops > 0);
        assert!(
            counters_m.coscheduled_ops > 0,
            "tiny co-runnable ops must be molded narrow under Moldable"
        );
    }

    #[test]
    fn parallel_executor_reports_missing_feed() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(3));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        assert_eq!(s.run(&[y], &[]), Err(ExecError::MissingFeed(x)));
    }

    #[test]
    fn parallel_executor_traces_in_plan_order() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 4));
        let y = g.matmul(x, x);
        let z = g.relu(y);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        s.enable_tracing();
        s.run(&[z], &[(x, Tensor::ones([4, 4]))]).unwrap();
        let trace = s.take_trace();
        let ops: Vec<&str> = trace.events.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["Placeholder", "MatMul", "Relu"]);
        assert!(trace.events.iter().all(|e| e.nanos >= 0.0));
    }

    #[test]
    fn parallel_executor_propagates_op_errors() {
        let mut g = Graph::new();
        let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
        let labels = g.placeholder("labels", Shape::matrix(1, 2));
        let loss = g.ctc_loss(logits, labels, 0);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        // Label 0 collides with the blank symbol: BadLabels.
        let err = s
            .run(
                &[loss],
                &[
                    (logits, Tensor::zeros([4, 1, 3])),
                    (labels, Tensor::from_vec(vec![0.0, 1.0], [1, 2])),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::BadLabels(_)));
    }

    #[test]
    fn parallel_executor_propagates_op_panics() {
        // A gather with an out-of-range index asserts inside the kernel
        // at run time. The parallel executor must re-raise that panic on
        // the calling thread — not hang the coordinator (the panicking
        // op never reports completion) and not poison the worker set.
        let mut g = Graph::new();
        let table = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let idx = g.placeholder("idx", Shape::vector(2));
        let rows = g.gather(table, idx);
        let mut s = Session::new(g, Device::cpu_inter_op(1, 4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run(&[rows], &[(idx, Tensor::from(vec![0.0, 9.0]))]);
        }));
        assert!(result.is_err(), "kernel panic must propagate, not hang");
        // The session (and its inter-op pool) must remain usable.
        let out = s.run1(rows, &[(idx, Tensor::from(vec![1.0, 0.0]))]).unwrap();
        assert_eq!(out.data(), &[3.0, 4.0, 1.0, 2.0]);
    }

    /// A graph whose plan runs an SGD update *before* a CTC loss that can
    /// be made to fail via bad labels: the classic "state committed, then
    /// the step died" shape. Returns (graph, label placeholder, logits
    /// placeholder, variable, apply node, loss node).
    fn apply_then_failable_loss() -> (Graph, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![1.0, 2.0]));
        let grad = g.random_normal([2]);
        let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
        let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
        let labels = g.placeholder("labels", Shape::matrix(1, 2));
        let loss = g.ctc_loss(logits, labels, 0);
        (g, labels, logits, v, apply, loss)
    }

    fn rollback_after_mid_run_error(device: Device) {
        let (g, labels, logits, v, apply, loss) = apply_then_failable_loss();
        let mut s = Session::with_seed(g, device, 42);
        let before = s.variable_value(v).unwrap().clone();
        // Label 0 collides with the blank symbol: the run fails after the
        // apply op already committed its variable update in plan order.
        let err = s
            .run(
                &[apply, loss],
                &[
                    (logits, Tensor::zeros([4, 1, 3])),
                    (labels, Tensor::from_vec(vec![0.0, 1.0], [1, 2])),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::BadLabels(_)));
        assert_eq!(
            s.variable_value(v).unwrap(),
            &before,
            "failed run must roll the committed SGD update back"
        );
        // The RNG must be rewound too: the post-failure run draws the
        // same gradient a never-failed session would.
        let good = [
            (logits, Tensor::zeros([4, 1, 3])),
            (labels, Tensor::from_vec(vec![1.0, 2.0], [1, 2])),
        ];
        s.run(&[apply, loss], &good).expect("session recovered");
        let recovered = s.variable_value(v).unwrap().clone();
        let (g2, labels2, logits2, v2, apply2, loss2) = apply_then_failable_loss();
        let mut fresh = Session::with_seed(g2, Device::cpu(1), 42);
        fresh
            .run(
                &[apply2, loss2],
                &[
                    (logits2, Tensor::zeros([4, 1, 3])),
                    (labels2, Tensor::from_vec(vec![1.0, 2.0], [1, 2])),
                ],
            )
            .expect("runs");
        assert_eq!(
            recovered,
            fresh.variable_value(v2).unwrap().clone(),
            "a rolled-back failure must leave no trace on later steps"
        );
    }

    #[test]
    fn serial_executor_rolls_back_failed_runs() {
        rollback_after_mid_run_error(Device::cpu(1));
    }

    #[test]
    fn parallel_executor_rolls_back_failed_runs() {
        rollback_after_mid_run_error(Device::cpu_inter_op(1, 4));
    }

    #[test]
    fn injected_op_panic_rolls_back_and_session_stays_usable() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut g = Graph::new();
        let v = g.variable("v", Tensor::from(vec![1.0, 1.0]));
        let grad = g.constant(Tensor::from(vec![0.5, -0.5]));
        let apply = g.add(OpKind::ApplyGradientDescent { lr: 0.1 }, &[v, grad]);
        let mut s = Session::new(g, Device::cpu(1));
        // Fire after the apply committed (plan: variable, constant, apply).
        s.set_fault_plan(Some(Arc::new(
            FaultPlan::new(0).with(FaultSite::ExecOp, 2, FaultAction::Panic),
        )));
        let before = s.variable_value(v).unwrap().clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run(&[apply], &[]);
        }));
        assert!(result.is_err(), "injected panic must surface");
        assert_eq!(s.variable_value(v).unwrap(), &before, "panic must roll state back");
        s.set_fault_plan(None);
        s.run(&[apply], &[]).expect("session recovered after injected panic");
        assert!((s.variable_value(v).unwrap().data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn injected_nan_poisoning_is_visible_in_the_output() {
        use crate::fault::{FaultAction, FaultPlan, FaultSite};
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::vector(4));
        let y = g.neg(x);
        let mut s = Session::new(g, Device::cpu(1));
        // Plan order: placeholder (hit 0), neg (hit 1).
        s.set_fault_plan(Some(Arc::new(
            FaultPlan::new(0).with(FaultSite::ExecOp, 1, FaultAction::PoisonNan),
        )));
        let out = s.run1(y, &[(x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0]))]).unwrap();
        assert!(out.data().iter().all(|v| v.is_nan()), "poisoned op must emit NaNs");
        s.set_fault_plan(None);
        let clean = s.run1(y, &[(x, Tensor::from(vec![1.0, 2.0, 3.0, 4.0]))]).unwrap();
        assert_eq!(clean.data(), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn ctc_loss_through_graph() {
        let mut g = Graph::new();
        let logits = g.placeholder("logits", Shape::new(vec![4, 1, 3]));
        let labels = g.placeholder("labels", Shape::matrix(1, 2));
        let loss = g.ctc_loss(logits, labels, 0);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s
            .run1(
                loss,
                &[
                    (logits, Tensor::zeros([4, 1, 3])),
                    (labels, Tensor::from_vec(vec![1.0, 2.0], [1, 2])),
                ],
            )
            .unwrap();
        assert!(out.scalar_value() > 0.0);
        assert!(out.scalar_value().is_finite());
    }

    #[test]
    fn shape_of_materializes_dims() {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::new(vec![2, 5, 3]));
        let sh = g.shape_of(x);
        let mut s = Session::new(g, Device::cpu(1));
        let out = s.run1(sh, &[(x, Tensor::zeros([2, 5, 3]))]).unwrap();
        assert_eq!(out.data(), &[2.0, 5.0, 3.0]);
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

    /// Graph with one bf16-eligible GEMM: x:[4,128] @ w:[128,64]
    /// (k = 128 ≥ 64, n = 64 ≥ 16, k·n = 8192 — [`kgemm::select`]
    /// routes it to the bf16 panels).
    fn gemm_session(device: Device) -> (Session, NodeId, Tensor, Tensor) {
        let mut rng = Rng::seeded(0x18);
        let xv = Tensor::randn([4, 128], 0.0, 1.0, &mut rng);
        let wv = Tensor::randn([128, 64], 0.0, 0.5, &mut rng);
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 128));
        let w = g.variable("w", wv.clone());
        let y = g.matmul(x, w);
        (Session::new(g, device), y, xv, wv)
    }

    #[test]
    fn bf16_precision_switches_the_gemm_kernel() {
        let (mut s, y, xv, wv) = gemm_session(Device::cpu(2));
        let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        let f32_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        assert_eq!(s.precision(), Precision::F32);
        s.set_precision(Precision::Bf16);
        assert_eq!(s.precision(), Precision::Bf16);
        let bf16_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        // The bf16 session output is bitwise the packed driver's over
        // bf16 panels.
        let mut expect = vec![0.0; 4 * 64];
        let pool = ExecPool::new(2);
        kgemm::gemm_into(
            &mut expect, 4, 64, 128, xv.data(), false, wv.data(), false, Precision::Bf16, None, &pool,
        );
        assert_eq!(bf16_out.data(), &expect[..], "session must use the bf16 engine");
        // And it genuinely lost mantissa bits relative to f32.
        assert!(bf16_out.max_abs_diff(&f32_out) > 0.0, "bf16 path was a no-op");

        // Switching back restores the f32 result bitwise.
        s.set_precision(Precision::F32);
        assert_eq!(s.run1(y, &[(x, xv)]).unwrap().data(), f32_out.data());
    }

    #[test]
    fn bf16_session_is_bitwise_identical_serial_vs_parallel() {
        let (mut serial, y, xv, _) = gemm_session(Device::cpu(1));
        let (mut par, yp, _, _) = gemm_session(Device::cpu_inter_op(2, 4));
        let x = serial.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        let xq = par.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        serial.set_precision(Precision::Bf16);
        par.set_precision(Precision::Bf16);
        let a = serial.run1(y, &[(x, xv.clone())]).unwrap();
        let b = par.run1(yp, &[(xq, xv)]).unwrap();
        assert_eq!(a.data(), b.data(), "bf16 must stay executor-independent");
    }

    #[test]
    fn calibrate_quantize_run_pipeline() {
        let (mut s, y, xv, wv) = gemm_session(Device::cpu(2));
        let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        let f32_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        // Quantizing without calibration is a typed error, not a panic.
        assert!(s.quantize_from_calibration().is_err());

        // Calibrate over two batches; ranges merge via per-channel max.
        let mut rng = Rng::seeded(0x19);
        let batch2 = Tensor::randn([4, 128], 0.0, 2.0, &mut rng);
        s.begin_calibration();
        s.run1(y, &[(x, xv.clone())]).unwrap();
        s.run1(y, &[(x, batch2.clone())]).unwrap();
        assert_eq!(s.finish_calibration(), 1, "one GEMM input observed");

        let ranges = s.calibration_ranges().expect("ranges recorded").clone();
        let (_, chans) = ranges.iter().next().unwrap();
        assert_eq!(chans.len(), 128, "one range per k-channel");
        for (c, &chan) in chans.iter().enumerate() {
            let expect = (0..4)
                .map(|r| xv.data()[r * 128 + c].abs().max(batch2.data()[r * 128 + c].abs()))
                .fold(0.0f32, f32::max);
            assert!((chan - expect).abs() < 1e-6, "channel {c} range is the running max");
        }

        assert_eq!(s.quantize_from_calibration(), Ok(1));
        let q_out = s.run1(y, &[(x, xv.clone())]).unwrap();

        // The session output is bitwise the standalone quantized kernel's.
        let act_max = chans.iter().fold(0.0f32, |m, &v| m.max(v));
        let qg = QuantizedGemm::from_weights(wv.data(), 128, 64, false, act_max);
        let expect = qg.matmul(&xv, &ExecPool::new(2));
        assert_eq!(q_out.data(), expect.data(), "session must use the int8 engine");
        // int8 tracks f32 within the quantization grid error bound.
        let w_max = wv.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = 128.0 * act_max * w_max / 127.0;
        assert!(q_out.max_abs_diff(&f32_out) <= tol, "int8 drifted past the grid bound");
        assert!(q_out.max_abs_diff(&f32_out) > 0.0, "int8 path was a no-op");

        // Dropping the plan restores the f32 result bitwise.
        s.clear_quantization();
        assert!(s.quant_plan().is_none());
        assert_eq!(s.run1(y, &[(x, xv)]).unwrap().data(), f32_out.data());
    }

    #[test]
    fn calibration_ranges_round_trip_through_setter() {
        let (mut s, y, xv, _) = gemm_session(Device::cpu(1));
        let x = s.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        s.begin_calibration();
        s.run1(y, &[(x, xv.clone())]).unwrap();
        s.finish_calibration();
        let saved = s.calibration_ranges().expect("recorded").clone();

        // A fresh session (as after checkpoint restore) accepts the saved
        // ranges and produces the same quantization plan.
        s.quantize_from_calibration().unwrap();
        let direct = s.run1(y, &[(x, xv.clone())]).unwrap();

        let (mut fresh, yf, _, _) = gemm_session(Device::cpu(1));
        let xf = fresh.graph().iter().find(|(_, n)| n.name.as_deref() == Some("x")).unwrap().0;
        fresh.set_calibration_ranges(saved.clone());
        assert_eq!(fresh.calibration_ranges(), Some(&saved));
        fresh.quantize_from_calibration().unwrap();
        assert_eq!(fresh.run1(yf, &[(xf, xv)]).unwrap().data(), direct.data());
    }
}
