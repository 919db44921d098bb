//! The standard model interface.
//!
//! "All Fathom models are wrapped in a standard interface which exposes
//! the same functions for every model. Thus, evaluating training,
//! inference, or simply inspecting the model's dataflow graph is
//! straightforward." (paper §VI). [`Workload`] is that interface.

use std::sync::Arc;

use fathom_dataflow::{Device, ExecError, NodeId, Precision, Session};

/// Whether a workload instance executes forward-only or full update steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Forward pass only.
    Inference,
    /// Forward and backward passes plus parameter updates.
    #[default]
    Training,
}

impl Mode {
    /// Both modes, for sweeps.
    pub const ALL: [Mode; 2] = [Mode::Inference, Mode::Training];

    /// Short label ("inference" / "training").
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Inference => "inference",
            Mode::Training => "training",
        }
    }
}

/// Model sizing regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelScale {
    /// CPU-tractable dimensions with the paper-true topology (layer counts
    /// and types are exact; widths and spatial extents are reduced). Used
    /// by tests and the bundled benches.
    #[default]
    Reference,
    /// The original papers' dimensions. Orders of magnitude slower on a
    /// CPU; provided for completeness and graph inspection.
    Full,
}

/// Static facts about a workload — the row it contributes to the paper's
/// Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMetadata {
    /// Canonical short name (`"seq2seq"`, `"memnet"`, …).
    pub name: &'static str,
    /// Publication year of the original model.
    pub year: u16,
    /// Original-work citation.
    pub reference: &'static str,
    /// Neuronal style (Table II column).
    pub style: &'static str,
    /// Layer count of the canonical configuration.
    pub layers: usize,
    /// Learning task (supervised / unsupervised / reinforcement).
    pub task: &'static str,
    /// Dataset of record (the corpus this suite synthesizes a stand-in
    /// for).
    pub dataset: &'static str,
    /// One-line purpose and legacy.
    pub purpose: &'static str,
}

/// Statistics from one workload step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Training loss, when the mode computes one.
    pub loss: Option<f32>,
    /// Auxiliary metric (episode reward for `deepq`, mean confidence for
    /// inference runs, …), when meaningful.
    pub metric: Option<f32>,
    /// Global gradient norm (L2, across every trainable variable), when
    /// the training graph tracks it. The divergence guardrail watches
    /// this for explosions.
    pub grad_norm: Option<f32>,
}

/// Graph nodes a training loop watches for divergence: the scalar loss
/// and the global gradient norm (see
/// `fathom_dataflow::Optimizer::minimize_tracked`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainProbes {
    /// The scalar training loss.
    pub loss: NodeId,
    /// The global gradient L2 norm.
    pub grad_norm: NodeId,
}

/// The values a serving client may legally feed into an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDomain {
    /// Real-valued data: any finite `f32` is acceptable.
    Real,
    /// Integer token ids in `0..vocab`, stored as `f32` (the convention
    /// the `Gather`/embedding ops use). Out-of-range ids are invalid.
    Tokens {
        /// Exclusive upper bound on legal token ids.
        vocab: usize,
    },
}

/// One batched placeholder of an inference graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputPort {
    /// The placeholder node to feed.
    pub node: NodeId,
    /// Which axis of the placeholder indexes requests (0 for most
    /// workloads; 1 for `speech`, whose frames are `[time, batch, ...]`).
    pub batch_axis: usize,
    /// What values a request may supply.
    pub domain: PortDomain,
}

/// The per-request result node of an inference graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputPort {
    /// The node whose value is split back per request.
    pub node: NodeId,
    /// Which axis of the fetched tensor indexes requests.
    pub batch_axis: usize,
}

/// How a serving layer batches independent requests through a workload's
/// inference graph: which placeholders to pack, which node to fetch, and
/// how many requests one run can carry.
///
/// The contract is *batch independence*: row `i` of the output depends
/// only on row `i` of each input, so a server may pack unrelated requests
/// into one minibatch and split the result without cross-talk (verified
/// bitwise in `tests/serving.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpec {
    /// Placeholders a request must populate, in request-payload order.
    pub inputs: Vec<InputPort>,
    /// The per-request result.
    pub output: OutputPort,
    /// The graph's fixed batch extent — at most this many requests fit in
    /// one run. A serving replica also holds graphs at smaller extents
    /// and zero-pads a short batch to the smallest that holds it.
    pub capacity: usize,
}

/// The standard interface every Fathom workload implements.
pub trait Workload {
    /// Static facts about the model.
    fn metadata(&self) -> &WorkloadMetadata;

    /// The mode this instance was built for.
    fn mode(&self) -> Mode;

    /// Executes one update step (training) or one batched forward pass
    /// (inference) on freshly generated data, surfacing session errors
    /// (e.g. a tripped guardrail) instead of panicking. A failed step is
    /// a complete no-op on session *and* pipeline state: implementations
    /// draw their batch, run the session, and only advance pipeline
    /// cursors after the run commits.
    ///
    /// # Errors
    ///
    /// Returns whatever [`Session::run`] returned; notably
    /// [`ExecError::GuardTripped`] when a guardrail is armed and fires.
    fn try_step(&mut self) -> Result<StepStats, ExecError>;

    /// Executes one step, panicking on session errors. The convenient
    /// form for benchmarks and tests that arm no guardrail.
    ///
    /// # Panics
    ///
    /// Panics if [`Workload::try_step`] errors.
    fn step(&mut self) -> StepStats {
        self.try_step().expect("workload step failed")
    }

    /// The underlying session, for tracing and inspection.
    fn session(&self) -> &Session;

    /// Mutable session access, e.g. to enable tracing or switch devices.
    fn session_mut(&mut self) -> &mut Session;

    /// Canonical short name.
    fn name(&self) -> &'static str {
        self.metadata().name
    }

    /// How a serving layer may batch independent requests through this
    /// instance, when it supports that at all. `None` for training-mode
    /// instances and for workloads without a batch-independent fetch.
    fn batch_spec(&self) -> Option<BatchSpec> {
        None
    }

    /// The loss and gradient-norm nodes a guardrail should watch, when
    /// the training graph tracks them.
    fn train_probes(&self) -> Option<TrainProbes> {
        None
    }

    /// The workload-side data-pipeline state (corpus RNG streams, replay
    /// buffers, environment state) as the parts of an opaque blob, in
    /// order: [`Workload::export_pipeline`] is their concatenation. A
    /// part is shared, so a workload may hand out the same part to
    /// successive snapshots while the state it encodes is unchanged.
    /// Workloads without pipeline state return no parts.
    fn pipeline_parts(&self) -> Vec<Arc<[u8]>> {
        Vec::new()
    }

    /// The pipeline blob for
    /// [`fathom_dataflow::checkpoint::save_resume`]: the concatenation of
    /// [`Workload::pipeline_parts`]. Workloads implement the parts, not
    /// this.
    fn export_pipeline(&self) -> Vec<u8> {
        self.pipeline_parts().concat()
    }

    /// Restores pipeline state captured by [`Workload::export_pipeline`].
    /// After a successful import (paired with the session restore the
    /// checkpoint performs), subsequent steps are bitwise-identical to
    /// the run that saved the state.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the blob does not parse
    /// or does not fit this workload.
    fn import_pipeline(&mut self, blob: &[u8]) -> Result<(), String> {
        if blob.is_empty() {
            Ok(())
        } else {
            Err(format!("{} carries no pipeline state, got {} bytes", self.name(), blob.len()))
        }
    }

    /// Advances the data pipeline past the current batch without running
    /// the session — the guardrail's "skip batch" retry lever. Workloads
    /// whose batches are drawn from an RNG stream burn one draw.
    fn skip_batch(&mut self) {}
}

/// Construction parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Inference or training graph.
    pub mode: Mode,
    /// Sizing regime.
    pub scale: ModelScale,
    /// Execution device.
    pub device: Device,
    /// Seed for parameters, data, and sampling ops.
    pub seed: u64,
    /// Overrides the scale's default minibatch extent when set — the
    /// serving layer builds graphs sized to its `max_batch`. Parameter
    /// shapes never depend on the batch extent, so two instances that
    /// differ only in `batch` have identical variables (and accept each
    /// other's checkpoints).
    pub batch: Option<usize>,
    /// Which fusion passes run after the graph (gradients included) is
    /// built. Bitwise-neutral at every level: fused and unfused sessions
    /// produce identical losses, metrics, and variable trajectories.
    pub fusion: FusionLevel,
    /// GEMM compute width (DESIGN.md §18): [`Precision::F32`] runs the
    /// full-precision engine; [`Precision::Bf16`] packs eligible GEMM
    /// panels as bf16 and accumulates in f32. Unlike `fusion` this is
    /// *not* bitwise-neutral — it trades mantissa bits for bandwidth —
    /// so the default stays `F32`.
    pub precision: Precision,
}

/// How aggressively a workload's session fuses its graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FusionLevel {
    /// No fusion: the graph runs as built.
    #[default]
    Off,
    /// GEMM epilogue fusion, then elementwise fusion of what remains.
    Full,
}

impl FusionLevel {
    /// Whether the fusion passes run.
    pub fn enabled(self) -> bool {
        self == FusionLevel::Full
    }
}

impl BuildConfig {
    /// Training at reference scale on a single-threaded CPU.
    pub fn training() -> Self {
        BuildConfig {
            mode: Mode::Training,
            scale: ModelScale::Reference,
            device: Device::cpu(1),
            seed: 0xFA7408,
            batch: None,
            fusion: FusionLevel::Off,
            precision: Precision::F32,
        }
    }

    /// Inference at reference scale on a single-threaded CPU.
    pub fn inference() -> Self {
        BuildConfig { mode: Mode::Inference, ..BuildConfig::training() }
    }

    /// Replaces the device.
    pub fn with_device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the scale.
    pub fn with_scale(mut self, scale: ModelScale) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the minibatch extent.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Enables or disables fusion (`true` means [`FusionLevel::Full`]).
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.fusion = if on { FusionLevel::Full } else { FusionLevel::Off };
        self
    }

    /// Selects the GEMM compute width.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The batch extent to build with: the override when present,
    /// otherwise the scale's default.
    pub fn batch_or(&self, default: usize) -> usize {
        self.batch.unwrap_or(default)
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig::training()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Training.label(), "training");
        assert_eq!(Mode::Inference.label(), "inference");
    }

    #[test]
    fn config_builders() {
        let c = BuildConfig::inference().with_seed(9);
        assert_eq!(c.mode, Mode::Inference);
        assert_eq!(c.seed, 9);
        assert_eq!(c.scale, ModelScale::Reference);
        let c = c.with_scale(ModelScale::Full);
        assert_eq!(c.scale, ModelScale::Full);
    }

    #[test]
    fn batch_override() {
        let c = BuildConfig::inference();
        assert_eq!(c.batch, None);
        assert_eq!(c.batch_or(32), 32);
        let c = c.with_batch(5);
        assert_eq!(c.batch_or(32), 5);
    }
}
