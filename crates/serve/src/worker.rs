//! Session workers: pre-built inference graphs per (workload, replica),
//! executing coalesced request batches.
//!
//! A [`SessionWorker`] owns warm [`Session`]s built at the batcher's
//! `max_batch` extent and at the smaller extents of [`EXTENTS`], all
//! sharing one set of weight tensors. Each dispatch packs the requests'
//! tensors into the placeholders of the smallest graph that holds them
//! (zero-padding its unused slots), runs the single fetch named by the
//! workload's [`BatchSpec`], and splits the result back into one tensor
//! per request. The event loop talks to workers only through the
//! [`BatchRunner`] trait, so deterministic tests substitute fake runners
//! with injected service times.

use std::collections::HashMap;
use std::io::Read;
use std::time::Instant;

use fathom::{BatchSpec, BuildConfig, Mode, ModelKind, PortDomain, Workload};
use fathom_dataflow::checkpoint::{self, CheckpointError};
use fathom_dataflow::{batch, ExecError, NodeId, OpClass, RuntimeCounters, Session};
use fathom_tensor::{Rng, Shape, Tensor};

/// A failure while serving.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying graph execution failed.
    Exec(ExecError),
    /// The request or workload cannot be served as configured.
    Unservable(String),
    /// Warm-start checkpoint could not be restored.
    Checkpoint(CheckpointError),
    /// A replica failed while executing a batch — a crashed process,
    /// an injected fault, or a loop-internal invariant violation.
    Fault(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Exec(e) => write!(f, "serving execution failed: {e}"),
            ServeError::Unservable(msg) => write!(f, "unservable: {msg}"),
            ServeError::Checkpoint(e) => write!(f, "warm start failed: {e}"),
            ServeError::Fault(msg) => write!(f, "replica fault: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// One admitted inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Monotonic id in admission order.
    pub id: u64,
    /// Virtual arrival time, nanoseconds since the run began.
    pub arrival: u64,
    /// One tensor per input port, each with extent 1 on its batch axis.
    pub inputs: Vec<Tensor>,
}

/// The result of executing one coalesced batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-request outputs, in the order the requests were given.
    pub outputs: Vec<Tensor>,
    /// Wall time of the batch execution, nanoseconds.
    pub service_nanos: f64,
    /// Op time by paper class A-G (zeros unless the worker traces).
    pub class_nanos: [f64; 7],
}

/// Executes coalesced batches — the event loop's only view of a worker.
pub trait BatchRunner {
    /// Most requests one batch can carry.
    fn capacity(&self) -> usize;

    /// Runs `reqs` (1..=capacity of them) as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the requests do not fit the graph or
    /// execution fails.
    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError>;

    /// Restores the runner to a servable state after [`run_batch`]
    /// returned an error. The loop's supervisor calls this when a
    /// quarantine expires; the default is a no-op for stateless runners.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the runner cannot be rebuilt; the
    /// supervisor then re-quarantines or retires the replica.
    ///
    /// [`run_batch`]: BatchRunner::run_batch
    fn recover(&mut self) -> Result<(), ServeError> {
        Ok(())
    }

    /// Cumulative unified-runtime counters for this runner's session
    /// (arena misses, steals, width decisions). The default is all-zero
    /// for runners not backed by a real session, which keeps the
    /// counters out of their reports.
    fn runtime_counters(&self) -> RuntimeCounters {
        RuntimeCounters::default()
    }
}

/// Batch extents a replica builds graphs at besides `max_batch`, so a
/// short batch is padded to the smallest of them that holds it, not to
/// `max_batch`. Below saturation most batches carry one or two requests;
/// an extent-4 graph cost set-up time and memory and bought no median
/// latency (EXPERIMENTS.md, "Serving batches cost what they carry").
const EXTENTS: [usize; 2] = [1, 2];

/// One inference graph of a replica, at one batch extent.
struct Plan {
    model: Box<dyn Workload>,
    spec: BatchSpec,
}

impl Plan {
    fn new(kind: ModelKind, model: Box<dyn Workload>) -> Result<Self, ServeError> {
        let spec = model.batch_spec().ok_or_else(|| {
            ServeError::Unservable(format!("{} does not support batched serving", kind.name()))
        })?;
        Ok(Plan { model, spec })
    }

    fn session(&self) -> &Session {
        self.model.session()
    }

    fn session_mut(&mut self) -> &mut Session {
        self.model.session_mut()
    }
}

/// Runs `plan` once on zeros. A replica's first batch otherwise also pays
/// the thread's first-use costs (allocator, kernel scratch) and runs
/// several times slower than later ones; warming its cheapest plan pays
/// them at construction. Warming every plan cost set-up time for no
/// latency gain. The run's random draws are discarded: every batch
/// starts from the replica's stream.
fn warm(plan: &mut Plan) -> Result<(), ServeError> {
    let session = plan.model.session_mut();
    let feeds: Vec<(NodeId, Tensor)> = plan
        .spec
        .inputs
        .iter()
        .map(|p| (p.node, Tensor::zeros(session.graph().shape(p.node).clone())))
        .collect();
    session.run1(plan.spec.output.node, &feeds)?;
    Ok(())
}

/// A replica's weights, by variable name.
type Weights = HashMap<String, Tensor>;

/// Every named variable of `session`, sharing its buffer.
fn weight_set(session: &Session) -> Weights {
    let graph = session.graph();
    graph
        .variables()
        .into_iter()
        .filter_map(|id| {
            let name = graph.node(id).name.clone()?;
            Some((name, session.variable_value(id).expect("graph variables exist").clone()))
        })
        .collect()
}

/// Points every variable of `session` at its tensor in `weights`. Only
/// placeholder shapes depend on the batch extent, so a graph of the same
/// model at another extent has exactly the same variables.
fn install(session: &mut Session, weights: &Weights) -> Result<(), ServeError> {
    let vars = session.graph().variables();
    if vars.len() != weights.len() {
        return Err(ServeError::Unservable(format!(
            "graph has {} variables, the weight set {}",
            vars.len(),
            weights.len()
        )));
    }
    for id in vars {
        let name = session.graph().node(id).name.as_deref().unwrap_or_default();
        let value = weights.get(name).ok_or_else(|| {
            ServeError::Unservable(format!("variable '{name}' is not in the weight set"))
        })?;
        session.assign(id, value.clone())?;
    }
    Ok(())
}

/// A [`BatchRunner`] backed by real workload sessions: one graph at the
/// batcher's `max_batch` (the *full* plan) and one at each smaller
/// extent of [`EXTENTS`], all serving one weight set.
pub struct SessionWorker {
    /// The graph at the batcher's `max_batch`.
    full: Plan,
    /// The graphs at the extents of [`EXTENTS`] below `max_batch`,
    /// ascending.
    smaller: Vec<Plan>,
    /// The shape one request supplies per input port, the same at every
    /// extent.
    shapes: Vec<Shape>,
    trace: bool,
    kind: ModelKind,
    cfg: BuildConfig,
    /// The weights every plan serves — the initial draw at construction,
    /// replaced by [`warm_start`]. Inference never writes a variable, so
    /// [`recover`](Self::recover) rebuilds the plans around these
    /// tensors.
    ///
    /// [`warm_start`]: Self::warm_start
    weights: Weights,
}

impl SessionWorker {
    /// Builds an inference-mode instance of `kind` sized for batching.
    /// The config's `mode` is forced to inference; set `cfg.batch` to the
    /// batcher's `max_batch` so capacity and coalescing limit agree.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unservable`] when the workload does not
    /// publish a [`BatchSpec`] (it has no batch-independent fetch).
    pub fn new(kind: ModelKind, cfg: &BuildConfig) -> Result<Self, ServeError> {
        let cfg = BuildConfig { mode: Mode::Inference, ..cfg.clone() };
        let full = Plan::new(kind, kind.build(&cfg))?;
        let weights = weight_set(full.session());
        let shapes = full
            .spec
            .inputs
            .iter()
            .map(|p| batch::item_shape(full.session().graph().shape(p.node), p.batch_axis))
            .collect();
        let mut worker = SessionWorker {
            full,
            smaller: Vec::new(),
            shapes,
            trace: false,
            kind,
            cfg,
            weights,
        };
        worker.smaller = worker.smaller_plans()?;
        Ok(worker)
    }

    /// Builds a plan at every extent of [`EXTENTS`] below `max_batch`
    /// around the weight set.
    fn smaller_plans(&self) -> Result<Vec<Plan>, ServeError> {
        let capacity = self.capacity();
        EXTENTS
            .iter()
            .filter(|&&extent| extent < capacity)
            .map(|&extent| {
                let cfg = self.cfg.clone().with_batch(extent);
                let mut plan =
                    Plan::new(self.kind, self.kind.build_adopting(&cfg, &self.weights))?;
                // Adoption already shares every variable a model makes
                // through `Params`; installing checks that none was missed.
                install(plan.session_mut(), &self.weights)?;
                if extent == EXTENTS[0] {
                    warm(&mut plan)?;
                }
                Ok(plan)
            })
            .collect()
    }

    /// Every plan, ascending by extent.
    fn plans(&self) -> impl Iterator<Item = &Plan> {
        self.smaller.iter().chain(std::iter::once(&self.full))
    }

    /// The workload's batching contract at the full extent.
    pub fn spec(&self) -> &BatchSpec {
        &self.full.spec
    }

    /// The workload at the full extent (e.g. to checkpoint or inspect).
    /// Its session's RNG is the replica's random stream and its trace
    /// receives every batch's events while the caller traces it.
    pub fn workload_mut(&mut self) -> &mut dyn Workload {
        self.full.model.as_mut()
    }

    /// Captures per-batch op traces so [`BatchResult::class_nanos`] (and
    /// the report's class slices) are populated.
    pub fn enable_tracing(&mut self) {
        self.trace = true;
    }

    /// Restores trained variables from a checkpoint stream before
    /// serving. Training and inference graphs share their variable set
    /// (optimizer state lives outside graph variables), so training
    /// checkpoints load directly. The stream is decoded once, into the
    /// full plan, and every other plan shares the decoded tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Checkpoint`] when the stream is invalid or
    /// disagrees with the graph; every plan then keeps serving the
    /// weights it had.
    pub fn warm_start(&mut self, r: impl Read) -> Result<(), ServeError> {
        checkpoint::load(self.full.session_mut(), r)?;
        // The restored weights are the set a replica rebuilt after a
        // crash serves, not the random initialization.
        self.weights = weight_set(self.full.session());
        for plan in &mut self.smaller {
            install(plan.session_mut(), &self.weights)?;
        }
        Ok(())
    }

    /// The shape one request must supply for each input port (batch axis
    /// pinned to extent 1), in port order.
    pub fn item_shapes(&self) -> Vec<Shape> {
        self.shapes.clone()
    }

    /// The value domain of each input port, in port order.
    pub fn domains(&self) -> Vec<PortDomain> {
        self.spec().inputs.iter().map(|p| p.domain).collect()
    }
}

impl BatchRunner for SessionWorker {
    fn capacity(&self) -> usize {
        self.spec().capacity
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        if reqs.is_empty() || reqs.len() > self.capacity() {
            return Err(ServeError::Unservable(format!(
                "batch of {} requests does not fit capacity {}",
                reqs.len(),
                self.capacity()
            )));
        }
        // The smallest plan that holds the batch; `full` is the full plan
        // when that is a different one.
        let (plan, full) =
            match self.smaller.iter_mut().find(|p| p.spec.capacity >= reqs.len()) {
                Some(plan) => (plan, Some(&mut self.full)),
                None => (&mut self.full, None),
            };
        let spec = &plan.spec;
        let mut feeds = Vec::with_capacity(spec.inputs.len());
        for (j, port) in spec.inputs.iter().enumerate() {
            let mut items = Vec::with_capacity(reqs.len());
            for r in reqs {
                let t = r.inputs.get(j).ok_or_else(|| {
                    ServeError::Unservable(format!(
                        "request {} supplies {} inputs, graph has {} ports",
                        r.id,
                        r.inputs.len(),
                        spec.inputs.len()
                    ))
                })?;
                if t.shape() != &self.shapes[j] {
                    return Err(ServeError::Unservable(format!(
                        "request {} port {j} is {} but the graph wants {}",
                        r.id,
                        t.shape(),
                        self.shapes[j]
                    )));
                }
                items.push(t);
            }
            feeds.push((port.node, batch::pack(&items, port.batch_axis, spec.capacity)));
        }

        // A smaller plan draws from the replica's one random stream, the
        // full plan's, and traces into the full plan's trace while the
        // caller records one there.
        let caller_traces = full.as_ref().is_some_and(|f| f.session().is_tracing());
        if let Some(full) = &full {
            let stream = full.session().rng_state();
            plan.session_mut().set_rng_state(stream);
        }
        if self.trace || caller_traces {
            plan.session_mut().enable_tracing();
        }
        let started = Instant::now();
        let fetched = plan.model.session_mut().run1(plan.spec.output.node, &feeds);
        let service_nanos = started.elapsed().as_nanos() as f64;
        let trace = (self.trace || caller_traces).then(|| plan.session_mut().take_trace());
        let mut class_nanos = [0.0; 7];
        for e in trace.iter().filter(|_| self.trace).flat_map(|t| &t.events) {
            // Invariant: every TraceEvent carries one of the seven paper
            // classes, and OpClass::ALL enumerates all seven, so the
            // position lookup cannot fail.
            let slot = OpClass::ALL.iter().position(|c| *c == e.class).expect("A-G class");
            class_nanos[slot] += e.nanos;
        }
        if let Some(full) = full {
            full.session_mut().set_rng_state(plan.session().rng_state());
            if let Some(trace) = trace.filter(|_| caller_traces) {
                full.session_mut().merge_trace(trace);
            }
        }
        let fetched = fetched.map_err(ServeError::Exec)?;
        let outputs = batch::split(&fetched, plan.spec.output.batch_axis, reqs.len());
        Ok(BatchResult { outputs, service_nanos, class_nanos })
    }

    /// Rebuilds every plan from scratch around the served weight set —
    /// the supervised-recovery path after a replica crash. Tracing
    /// preference survives the rebuild; the random stream restarts from
    /// the seed, as in a fresh replica.
    fn recover(&mut self) -> Result<(), ServeError> {
        let mut full = Plan::new(self.kind, self.kind.build_adopting(&self.cfg, &self.weights))?;
        install(full.session_mut(), &self.weights)?;
        self.full = full;
        self.smaller = self.smaller_plans()?;
        Ok(())
    }

    /// Every plan's counters merged; `arena_bytes` is their sum, the
    /// replica's whole footprint.
    fn runtime_counters(&self) -> RuntimeCounters {
        let (mut total, mut arena_bytes) = (RuntimeCounters::default(), 0);
        for plan in self.plans() {
            let c = plan.session().runtime_counters();
            arena_bytes += c.arena_bytes;
            total.merge(&c);
        }
        RuntimeCounters { arena_bytes, ..total }
    }
}

/// Synthesizes one request payload: uniform reals for
/// [`PortDomain::Real`] ports, valid token ids for
/// [`PortDomain::Tokens`] ports. Used by the load generator, which knows
/// shapes and domains but nothing about the model internals.
pub fn synth_inputs(shapes: &[Shape], domains: &[PortDomain], rng: &mut Rng) -> Vec<Tensor> {
    shapes
        .iter()
        .zip(domains)
        .map(|(shape, domain)| match domain {
            PortDomain::Real => Tensor::rand_uniform(shape.clone(), 0.0, 1.0, rng),
            PortDomain::Tokens { vocab } => {
                let data = (0..shape.num_elements()).map(|_| rng.below(*vocab) as f32).collect();
                Tensor::from_vec(data, shape.clone())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, worker: &SessionWorker, rng: &mut Rng) -> Request {
        Request { id, arrival: 0, inputs: synth_inputs(&worker.item_shapes(), &worker.domains(), rng) }
    }

    #[test]
    fn alexnet_batches_and_splits() {
        let cfg = BuildConfig::inference().with_batch(3);
        let mut w = SessionWorker::new(ModelKind::Alexnet, &cfg).expect("servable");
        assert_eq!(w.capacity(), 3);
        let mut rng = Rng::seeded(11);
        let reqs: Vec<Request> = (0..2).map(|i| request(i, &w, &mut rng)).collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        let out = w.run_batch(&refs).expect("runs");
        assert_eq!(out.outputs.len(), 2);
        for o in &out.outputs {
            assert_eq!(o.shape().dim(0), 1, "per-request output has batch extent 1");
            assert!(o.all_finite());
        }
        assert!(out.service_nanos > 0.0);
    }

    #[test]
    fn tracing_populates_class_slices() {
        let cfg = BuildConfig::inference().with_batch(2);
        let mut w = SessionWorker::new(ModelKind::Alexnet, &cfg).expect("servable");
        w.enable_tracing();
        let mut rng = Rng::seeded(5);
        let req = request(0, &w, &mut rng);
        let out = w.run_batch(&[&req]).expect("runs");
        // AlexNet inference must spend time in convolution (class B).
        assert!(out.class_nanos[1] > 0.0, "no convolution time traced: {:?}", out.class_nanos);
    }

    #[test]
    fn shape_mismatch_is_unservable_not_a_panic() {
        let cfg = BuildConfig::inference().with_batch(2);
        let mut w = SessionWorker::new(ModelKind::Alexnet, &cfg).expect("servable");
        let bogus = Request { id: 0, arrival: 0, inputs: vec![Tensor::zeros([1, 2])] };
        let err = w.run_batch(&[&bogus]).unwrap_err();
        assert!(matches!(err, ServeError::Unservable(_)), "got {err}");
    }

    #[test]
    fn overfull_batches_are_rejected() {
        let cfg = BuildConfig::inference().with_batch(1);
        let mut w = SessionWorker::new(ModelKind::Alexnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(3);
        let reqs: Vec<Request> = (0..2).map(|i| request(i, &w, &mut rng)).collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        assert!(matches!(w.run_batch(&refs).unwrap_err(), ServeError::Unservable(_)));
    }

    #[test]
    fn recover_rebuilds_the_session_with_identical_weights() {
        let cfg = BuildConfig::inference().with_batch(2);
        let mut w = SessionWorker::new(ModelKind::Alexnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(21);
        let req = request(0, &w, &mut rng);
        let before = w.run_batch(&[&req]).expect("runs");
        w.recover().expect("recovers");
        let after = w.run_batch(&[&req]).expect("runs after recovery");
        assert_eq!(
            before.outputs[0].data(),
            after.outputs[0].data(),
            "recovery must restore the exact served weights"
        );
    }

    #[test]
    fn recover_after_a_warm_start_serves_the_warm_started_weights() {
        let cfg = BuildConfig::inference().with_batch(2);
        let donor = SessionWorker::new(ModelKind::Memnet, &cfg.clone().with_seed(99)).expect("servable");
        let mut ckpt = Vec::new();
        checkpoint::save(donor.full.session(), &mut ckpt).expect("saves");
        let mut w = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(31);
        let req = request(0, &w, &mut rng);
        let initial = w.run_batch(&[&req]).expect("runs");
        w.warm_start(ckpt.as_slice()).expect("warm starts");
        let warm = w.run_batch(&[&req]).expect("runs warm");
        assert_ne!(initial.outputs[0].data(), warm.outputs[0].data(), "the warm start must engage");

        // A replica rebuilt after a crash serves the warm-started weights
        // bitwise, not its random initialization.
        w.recover().expect("recovers");
        let recovered = w.run_batch(&[&req]).expect("runs after recovery");
        assert_eq!(warm.outputs[0].data(), recovered.outputs[0].data());
    }

    #[test]
    fn warm_start_moves_a_deployment_between_workers() {
        let cfg = BuildConfig::inference().with_batch(2);
        let mut a = SessionWorker::new(ModelKind::Memnet, &cfg.clone().with_seed(47)).expect("servable");
        let mut rng = Rng::seeded(47);
        let req = request(0, &a, &mut rng);
        let a_out = a.run_batch(&[&req]).expect("runs");
        let mut ckpt = Vec::new();
        checkpoint::save(a.workload_mut().session(), &mut ckpt).expect("saves");

        let mut b = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let b_own = b.run_batch(&[&req]).expect("runs");
        let mut b_ckpt = Vec::new();
        checkpoint::save(b.full.session(), &mut b_ckpt).expect("saves");
        b.warm_start(ckpt.as_slice()).expect("warm starts");
        assert_eq!(a_out.outputs[0].data(), b.run_batch(&[&req]).expect("runs").outputs[0].data());

        // Warm-starting again replaces the deployment: b's own
        // checkpoint brings its own outputs back.
        b.warm_start(b_ckpt.as_slice()).expect("warm starts");
        assert_eq!(b_own.outputs[0].data(), b.run_batch(&[&req]).expect("runs").outputs[0].data());
    }

    /// Asserts every plan's variables share the full plan's buffers and
    /// the worker's weight set.
    fn assert_one_weight_set(w: &SessionWorker, kind: ModelKind) {
        let full = weight_set(w.full.session());
        assert_eq!(full.len(), w.weights.len());
        for plan in w.plans() {
            let session = plan.session();
            for id in session.graph().variables() {
                let name = session.graph().node(id).name.as_deref().expect("named");
                let ptr = session.variable_value(id).expect("variable").data().as_ptr();
                let at = plan.spec.capacity;
                assert_eq!(ptr, full[name].data().as_ptr(), "{kind}: {name} at {at}");
                assert_eq!(ptr, w.weights[name].data().as_ptr(), "{kind}: {name}");
            }
        }
    }

    #[test]
    fn every_plan_serves_the_one_weight_set() {
        for kind in [ModelKind::Alexnet, ModelKind::Seq2Seq, ModelKind::Speech, ModelKind::Memnet] {
            let cfg = BuildConfig::inference().with_batch(8);
            let mut w = SessionWorker::new(kind, &cfg).expect("servable");
            let extents: Vec<usize> = w.plans().map(|p| p.spec.capacity).collect();
            assert_eq!(extents, [1, 2, 8], "{kind}");
            assert_one_weight_set(&w, kind);

            let donor = SessionWorker::new(kind, &cfg.clone().with_seed(99)).expect("servable");
            let mut ckpt = Vec::new();
            checkpoint::save(donor.full.session(), &mut ckpt).expect("saves");
            w.warm_start(ckpt.as_slice()).expect("warm starts");
            assert_one_weight_set(&w, kind);
            w.recover().expect("recovers");
            assert_one_weight_set(&w, kind);
        }
    }

    #[test]
    fn a_batch_runs_on_the_smallest_plan_that_holds_it() {
        let cfg = BuildConfig::inference().with_batch(8);
        let mut w = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(13);
        let reqs: Vec<Request> = (0..8).map(|i| request(i, &w, &mut rng)).collect();
        let refs: Vec<&Request> = reqs.iter().collect();
        for (n, ran) in [(1, 0), (2, 1), (3, 2), (8, 2)] {
            let before: Vec<u64> = w.plans().map(|p| p.session().step()).collect();
            w.run_batch(&refs[..n]).expect("runs");
            for (i, plan) in w.plans().enumerate() {
                assert_eq!(plan.session().step(), before[i] + u64::from(i == ran), "batch of {n}");
            }
        }
    }

    #[test]
    fn a_short_batch_traces_and_counts_where_the_caller_reads() {
        let cfg = BuildConfig::inference().with_batch(4);
        let mut w = SessionWorker::new(ModelKind::Alexnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(17);
        let req = request(0, &w, &mut rng);
        w.workload_mut().session_mut().enable_tracing();
        w.run_batch(&[&req]).expect("runs");
        let trace = w.workload_mut().session_mut().take_trace();
        assert_eq!(w.full.session().step(), 0, "the batch ran on the extent-1 plan");
        assert_eq!(trace.steps, 1);
        assert!(trace.events.iter().any(|e| e.class == OpClass::Convolution), "{trace:?}");
        assert!(!w.smaller[0].session().is_tracing(), "the extent-1 plan stops tracing");
        assert!(w.runtime_counters().allocations > 0, "the extent-1 plan's counters count");
    }

    #[test]
    fn token_ports_synthesize_valid_ids() {
        let cfg = BuildConfig::inference().with_batch(2);
        let w = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(9);
        let inputs = synth_inputs(&w.item_shapes(), &w.domains(), &mut rng);
        for (t, d) in inputs.iter().zip(w.domains()) {
            if let PortDomain::Tokens { vocab } = d {
                for &v in t.data() {
                    assert!(v >= 0.0 && (v as usize) < vocab && v.fract() == 0.0);
                }
            }
        }
    }
}
