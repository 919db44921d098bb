//! Session workers: one pre-built inference graph per (workload,
//! replica), executing coalesced request batches.
//!
//! A [`SessionWorker`] owns a warm [`Session`] built at the batcher's
//! `max_batch` extent. Each dispatch packs the requests' tensors into
//! the graph's fixed-shape placeholders (zero-padding unused slots),
//! runs the single fetch named by the workload's
//! [`BatchSpec`](fathom::BatchSpec), and splits the result back into one
//! tensor per request. The event loop talks to workers only through the
//! [`BatchRunner`] trait, so deterministic tests substitute fake runners
//! with injected service times.

use std::io::Read;
use std::time::Instant;

use fathom::{BatchSpec, BuildConfig, Mode, ModelKind, PortDomain, Workload};
use fathom_dataflow::checkpoint::{self, CheckpointError};
use fathom_dataflow::{batch, ExecError, OpClass, RuntimeCounters};
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

/// A [`BatchRunner`] backed by a real workload session.
pub struct SessionWorker {
    model: Box<dyn Workload>,
    spec: BatchSpec,
    trace: bool,
    kind: ModelKind,
    cfg: BuildConfig,
    /// Checkpoint of the variables this worker should serve with — the
    /// initial weights at construction, replaced by [`warm_start`].
    /// [`recover`](Self::recover) rebuilds the session from these bytes.
    ///
    /// [`warm_start`]: Self::warm_start
    baseline: Vec<u8>,
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
        let model = kind.build(&cfg);
        let spec = model.batch_spec().ok_or_else(|| {
            ServeError::Unservable(format!("{} does not support batched serving", kind.name()))
        })?;
        let mut baseline = Vec::new();
        checkpoint::save(model.session(), &mut baseline)?;
        Ok(SessionWorker { model, spec, trace: false, kind, cfg, baseline })
    }

    /// The workload's batching contract.
    pub fn spec(&self) -> &BatchSpec {
        &self.spec
    }

    /// The underlying workload (e.g. to checkpoint or inspect).
    pub fn workload_mut(&mut self) -> &mut dyn Workload {
        self.model.as_mut()
    }

    /// Captures per-batch op traces so [`BatchResult::class_nanos`] (and
    /// the report's class slices) are populated.
    pub fn enable_tracing(&mut self) {
        self.trace = true;
    }

    /// Restores trained variables from a checkpoint stream before
    /// serving. Training and inference graphs share their variable set
    /// (optimizer state lives outside graph variables), so training
    /// checkpoints load directly.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Checkpoint`] when the stream is invalid or
    /// disagrees with the graph.
    pub fn warm_start(&mut self, r: impl Read) -> Result<(), ServeError> {
        // The checkpoint is the source of truth for the deployment:
        // drop any held ranges/plan so a stream without a calibration
        // section yields an f32 worker, not one quantized from stale
        // ranges.
        self.model.session_mut().clear_calibration();
        checkpoint::load(self.model.session_mut(), r)?;
        // A checkpoint that carries calibration ranges restores a
        // quantized deployment: re-derive the int8 plan from the
        // persisted ranges instead of serving f32.
        if self.model.session().calibration_ranges().is_some() {
            self.model.session_mut().quantize_from_calibration().map_err(ServeError::Unservable)?;
        }
        // The restored weights become the recovery baseline: a replica
        // rebuilt after a crash serves the warm-started model, not the
        // random initialization.
        self.baseline.clear();
        checkpoint::save(self.model.session(), &mut self.baseline)?;
        Ok(())
    }

    /// Calibrates per-channel activation ranges over `batches` synthetic
    /// full batches and switches the session's eligible GEMMs to the
    /// per-channel int8 path. Returns how many GEMMs were quantized.
    ///
    /// The calibration ranges ride in the worker's recovery baseline
    /// (the checkpoint format persists them), so a replica rebuilt after
    /// a crash re-quantizes itself and keeps serving int8 — see
    /// [`recover`](Self::recover).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Unservable`] when the workload has no
    /// quantizable GEMM, or a calibration batch fails to execute.
    pub fn quantize(&mut self, batches: usize, rng: &mut Rng) -> Result<usize, ServeError> {
        let shapes = self.item_shapes();
        let domains = self.domains();
        self.model.session_mut().begin_calibration();
        for _ in 0..batches {
            let reqs: Vec<Request> = (0..self.spec.capacity)
                .map(|id| Request {
                    id: id as u64,
                    arrival: 0,
                    inputs: synth_inputs(&shapes, &domains, rng),
                })
                .collect();
            let refs: Vec<&Request> = reqs.iter().collect();
            if let Err(e) = self.run_batch(&refs) {
                // Leave the session out of calibration mode on failure.
                self.model.session_mut().finish_calibration();
                return Err(e);
            }
        }
        self.model.session_mut().finish_calibration();
        let gemms =
            self.model.session_mut().quantize_from_calibration().map_err(ServeError::Unservable)?;
        // Re-save the baseline so recovery restores the calibration
        // ranges along with the weights.
        self.baseline.clear();
        checkpoint::save(self.model.session(), &mut self.baseline)?;
        Ok(gemms)
    }

    /// True when this worker serves through the int8 quantized plan.
    pub fn is_quantized(&self) -> bool {
        self.model.session().quant_plan().is_some()
    }

    /// The shape one request must supply for each input port (batch axis
    /// pinned to extent 1), in port order.
    pub fn item_shapes(&self) -> Vec<Shape> {
        self.spec
            .inputs
            .iter()
            .map(|p| batch::item_shape(self.model.session().graph().shape(p.node), p.batch_axis))
            .collect()
    }

    /// The value domain of each input port, in port order.
    pub fn domains(&self) -> Vec<PortDomain> {
        self.spec.inputs.iter().map(|p| p.domain).collect()
    }
}

impl BatchRunner for SessionWorker {
    fn capacity(&self) -> usize {
        self.spec.capacity
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        if reqs.is_empty() || reqs.len() > self.spec.capacity {
            return Err(ServeError::Unservable(format!(
                "batch of {} requests does not fit capacity {}",
                reqs.len(),
                self.spec.capacity
            )));
        }
        let shapes = self.item_shapes();
        let mut feeds = Vec::with_capacity(self.spec.inputs.len());
        for (j, port) in self.spec.inputs.iter().enumerate() {
            let mut items = Vec::with_capacity(reqs.len());
            for r in reqs {
                let t = r.inputs.get(j).ok_or_else(|| {
                    ServeError::Unservable(format!(
                        "request {} supplies {} inputs, graph has {} ports",
                        r.id,
                        r.inputs.len(),
                        self.spec.inputs.len()
                    ))
                })?;
                if t.shape() != &shapes[j] {
                    return Err(ServeError::Unservable(format!(
                        "request {} port {j} is {} but the graph wants {}",
                        r.id,
                        t.shape(),
                        shapes[j]
                    )));
                }
                items.push(t);
            }
            feeds.push((port.node, batch::pack(&items, port.batch_axis, self.spec.capacity)));
        }

        if self.trace {
            self.model.session_mut().enable_tracing();
        }
        let started = Instant::now();
        let fetched =
            self.model.session_mut().run1(self.spec.output.node, &feeds).map_err(ServeError::Exec)?;
        let service_nanos = started.elapsed().as_nanos() as f64;
        let mut class_nanos = [0.0; 7];
        if self.trace {
            let trace = self.model.session_mut().take_trace();
            for e in &trace.events {
                // Invariant: every TraceEvent carries one of the seven
                // paper classes, and OpClass::ALL enumerates all seven,
                // so the position lookup cannot fail.
                let slot = OpClass::ALL.iter().position(|c| *c == e.class).expect("A-G class");
                class_nanos[slot] += e.nanos;
            }
        }
        let outputs = batch::split(&fetched, self.spec.output.batch_axis, reqs.len());
        Ok(BatchResult { outputs, service_nanos, class_nanos })
    }

    /// Rebuilds the workload session from scratch and reloads the
    /// baseline checkpoint — the supervised-recovery path after a
    /// replica crash. Tracing preference survives the rebuild.
    fn recover(&mut self) -> Result<(), ServeError> {
        let model = self.kind.build(&self.cfg);
        let spec = model.batch_spec().ok_or_else(|| {
            ServeError::Unservable(format!("{} does not support batched serving", self.kind.name()))
        })?;
        self.model = model;
        self.spec = spec;
        checkpoint::load(self.model.session_mut(), self.baseline.as_slice())?;
        // If the baseline was saved by a quantized worker it carries the
        // calibration ranges; re-quantize so the rebuilt replica serves
        // the same int8 plan it crashed with.
        if self.model.session().calibration_ranges().is_some() {
            self.model.session_mut().quantize_from_calibration().map_err(ServeError::Unservable)?;
        }
        Ok(())
    }

    fn runtime_counters(&self) -> RuntimeCounters {
        self.model.session().runtime_counters()
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
    fn quantize_switches_serving_and_survives_recovery() {
        let cfg = BuildConfig::inference().with_batch(2);
        let mut w = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(31);
        let req = request(0, &w, &mut rng);
        let f32_out = w.run_batch(&[&req]).expect("f32 baseline");
        assert!(!w.is_quantized());

        let gemms = w.quantize(2, &mut rng).expect("memnet has dense GEMMs");
        assert!(gemms >= 1, "at least one GEMM should quantize");
        assert!(w.is_quantized());
        let q_out = w.run_batch(&[&req]).expect("quantized run");
        assert_ne!(
            f32_out.outputs[0].data(),
            q_out.outputs[0].data(),
            "the int8 path must actually engage"
        );
        for o in &q_out.outputs {
            assert!(o.all_finite());
        }

        // A replica rebuilt after a crash must come back quantized (the
        // baseline persists the calibration ranges) and serve bitwise
        // the same outputs.
        w.recover().expect("recovers");
        assert!(w.is_quantized(), "recovery must restore the int8 plan");
        let r_out = w.run_batch(&[&req]).expect("runs after recovery");
        assert_eq!(q_out.outputs[0].data(), r_out.outputs[0].data());
    }

    #[test]
    fn warm_start_moves_a_quantized_deployment_between_workers() {
        let cfg = BuildConfig::inference().with_batch(2);
        let mut a = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let mut rng = Rng::seeded(47);
        a.quantize(2, &mut rng).expect("quantizes");
        let req = request(0, &a, &mut rng);
        let a_out = a.run_batch(&[&req]).expect("runs");
        let mut ckpt = Vec::new();
        checkpoint::save(a.workload_mut().session(), &mut ckpt).expect("saves");

        // The calibrated checkpoint restores a quantized deployment.
        let mut b = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        b.warm_start(ckpt.as_slice()).expect("warm starts");
        assert!(b.is_quantized(), "calibrated checkpoint must re-quantize");
        let b_out = b.run_batch(&[&req]).expect("runs");
        assert_eq!(a_out.outputs[0].data(), b_out.outputs[0].data());

        // A plain (uncalibrated) checkpoint restores an f32 deployment,
        // even on a worker that was quantized before.
        let plain = SessionWorker::new(ModelKind::Memnet, &cfg).expect("servable");
        let mut plain_ckpt = Vec::new();
        checkpoint::save(plain.model.session(), &mut plain_ckpt).expect("saves");
        b.warm_start(plain_ckpt.as_slice()).expect("warm starts");
        assert!(!b.is_quantized(), "plain checkpoint must clear the int8 plan");
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
