//! The workload shell: the one session builder every model calls, the
//! one [`Workload`] implementation the seven dataset-driven models share,
//! and the harness the three ImageNet classifiers share.
//!
//! A model file contributes what differs: its dimensions and metadata,
//! its graph, a [`BatchSource`] that draws its feeds, its inference
//! metric and its serving ports. Everything a step, a checkpoint or a
//! guardrail retry needs beyond that is written here once: the
//! failed-step rewind, the train probes, the one-RNG pipeline codec and
//! `skip_batch`.

use std::sync::Arc;

use fathom_data::imagenet::ImageCorpus;
use fathom_dataflow::{ExecError, Graph, NodeId, Optimizer, Session, TrainHandles};
use fathom_nn::Params;
use fathom_tensor::Tensor;

use crate::models::codec::{Dec, Enc};
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, Mode, OutputPort, PortDomain, StepStats, TrainProbes,
    Workload, WorkloadMetadata,
};

/// Turns a finished forward graph into a workload's session: in training
/// mode `optimizer` minimizes `loss` over the trainable `params` (with
/// the gradient norm tracked); the session is seeded with the config's
/// seed, runs at its precision and, when fusion is on, fuses with `keep`
/// and the train handles left materialized.
pub(super) fn build_session(
    cfg: &BuildConfig,
    mut g: Graph,
    params: &Params,
    loss: NodeId,
    optimizer: Optimizer,
    mut keep: Vec<NodeId>,
) -> (Session, Option<TrainHandles>) {
    let train = (cfg.mode == Mode::Training)
        .then(|| optimizer.minimize_tracked(&mut g, loss, params.trainable()));
    let mut session = Session::with_seed(g, cfg.device.clone(), cfg.seed);
    session.set_precision(cfg.precision);
    if cfg.fusion.enabled() {
        keep.extend(train.iter().flat_map(|h| [h.step, h.grad_norm]));
        session.enable_fusion(&keep);
    }
    (session, train)
}

/// A dataset-driven model's data side: the feeds of each step, drawn
/// from one seeded corpus stream.
pub trait BatchSource {
    /// Draws the next batch's feeds, advancing the corpus RNG.
    fn draw(&mut self) -> Vec<(NodeId, Tensor)>;

    /// The corpus RNG's state.
    fn rng_state(&self) -> [u64; 4];

    /// Rewinds (or restores) the corpus RNG.
    fn set_rng_state(&mut self, state: [u64; 4]);
}

/// What an inference step reports as its metric.
pub(super) enum Metric {
    /// The inference fetch's scalar value (the model's loss).
    Value,
    /// The largest entry of the inference fetch.
    Peak,
    /// Argmax accuracy of the fetched logits against the labels fed to
    /// this placeholder.
    Accuracy(NodeId),
}

/// What a model hands the shell.
pub(super) struct Parts<S> {
    /// The forward graph, loss included.
    pub graph: Graph,
    /// The variables `graph` was built with.
    pub params: Params,
    /// The training-mode optimizer.
    pub optimizer: Optimizer,
    /// The scalar training loss.
    pub loss: NodeId,
    /// The node an inference step fetches.
    pub infer: NodeId,
    /// What an inference step reports from it.
    pub metric: Metric,
    /// Nodes fusion must keep materialized, besides the train handles.
    pub keep: Vec<NodeId>,
    /// The serving ports; the shell offers them in inference mode only.
    pub spec: Option<BatchSpec>,
    /// The model's data side.
    pub source: S,
}

/// The standard interface around one dataset-driven model (every
/// workload but `deepq`): a step draws a batch from the model's
/// [`BatchSource`] and runs `[loss, grad_norm, step]` in training or the
/// inference fetch in inference.
pub struct Shell<S> {
    meta: WorkloadMetadata,
    mode: Mode,
    pub(super) session: Session,
    pub(super) source: S,
    loss: NodeId,
    train: Option<TrainHandles>,
    infer: NodeId,
    metric: Metric,
    spec: Option<BatchSpec>,
}

impl<S: BatchSource> Shell<S> {
    pub(super) fn new(meta: WorkloadMetadata, cfg: &BuildConfig, parts: Parts<S>) -> Self {
        let Parts { graph, params, optimizer, loss, infer, metric, keep, spec, source } = parts;
        let (session, train) = build_session(cfg, graph, &params, loss, optimizer, keep);
        Shell {
            meta,
            mode: cfg.mode,
            session,
            source,
            loss,
            train,
            infer,
            metric,
            spec: spec.filter(|_| cfg.mode == Mode::Inference),
        }
    }

    /// Runs the inference fetch on `feeds` and scores it.
    pub(super) fn infer(&mut self, feeds: &[(NodeId, Tensor)]) -> Result<f32, ExecError> {
        let out = self.session.run1(self.infer, feeds)?;
        Ok(match self.metric {
            Metric::Value => out.scalar_value(),
            Metric::Peak => out.max(),
            Metric::Accuracy(node) => {
                let (_, labels) = feeds.iter().find(|(id, _)| *id == node).expect("labels are fed");
                let pred = out.argmax_last_axis();
                let correct = pred.data().iter().zip(labels.data()).filter(|(a, b)| a == b).count();
                correct as f32 / labels.len().max(1) as f32
            }
        })
    }
}

impl<S: BatchSource> Workload for Shell<S> {
    fn metadata(&self) -> &WorkloadMetadata {
        &self.meta
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn try_step(&mut self) -> Result<StepStats, ExecError> {
        // Draw the batch from a probe of the stream, and rewind the
        // corpus RNG if the run fails: a failed (or tripped) step must
        // leave the pipeline exactly where it started.
        let rng_before = self.source.rng_state();
        let feeds = self.source.draw();
        let result = match self.train {
            Some(train) => self
                .session
                .run(&[self.loss, train.grad_norm, train.step], &feeds)
                .map(|out| StepStats {
                    loss: Some(out[0].scalar_value()),
                    metric: None,
                    grad_norm: Some(out[1].scalar_value()),
                }),
            None => self
                .infer(&feeds)
                .map(|metric| StepStats { loss: None, metric: Some(metric), grad_norm: None }),
        };
        if result.is_err() {
            self.source.set_rng_state(rng_before);
        }
        result
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn batch_spec(&self) -> Option<BatchSpec> {
        self.spec.clone()
    }

    fn train_probes(&self) -> Option<TrainProbes> {
        self.train.map(|h| TrainProbes { loss: self.loss, grad_norm: h.grad_norm })
    }

    fn pipeline_parts(&self) -> Vec<Arc<[u8]>> {
        let mut e = Enc::new(self.meta.name);
        e.rng(self.source.rng_state());
        vec![e.finish().into()]
    }

    fn import_pipeline(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut d = Dec::new(self.meta.name, blob)?;
        let state = d.rng()?;
        d.done()?;
        self.source.set_rng_state(state);
        Ok(())
    }

    fn skip_batch(&mut self) {
        let _ = self.source.draw();
    }
}

/// The three ImageNet classifiers (`alexnet`, `vgg`, `residual`): the
/// shell over a synthetic ImageNet stand-in, reporting argmax accuracy
/// in inference.
pub type ImageClassifier = Shell<Images>;

/// An image classifier's batch source: a fresh minibatch of images and
/// labels per step.
pub struct Images {
    corpus: ImageCorpus,
    images: NodeId,
    labels: NodeId,
    batch: usize,
}

impl BatchSource for Images {
    fn draw(&mut self) -> Vec<(NodeId, Tensor)> {
        let (images, labels) = self.corpus.batch(self.batch);
        vec![(self.images, images), (self.labels, labels)]
    }

    fn rng_state(&self) -> [u64; 4] {
        self.corpus.rng_state()
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.corpus.set_rng_state(state);
    }
}

/// Builds an image classifier around a model-specific logits builder.
///
/// `build_logits` receives `(graph, p, images_node)`, where `p` draws
/// (or adopts) the variables, and must return a `[batch, classes]`
/// logits node.
#[allow(clippy::too_many_arguments)] // each classifier's geometry, spelled out
pub(super) fn image_classifier(
    meta: WorkloadMetadata,
    cfg: &BuildConfig,
    mut p: Params,
    batch: usize,
    side: usize,
    classes: usize,
    optimizer: Optimizer,
    build_logits: impl FnOnce(&mut Graph, &mut Params, NodeId) -> NodeId,
) -> ImageClassifier {
    let mut g = Graph::new();
    let images = g.placeholder("images", [batch, side, side, 3]);
    let labels = g.placeholder("labels", [batch]);
    let logits = build_logits(&mut g, &mut p, images);
    assert_eq!(g.shape(logits).dims(), &[batch, classes], "model produced wrong logits shape");
    let loss = g.softmax_cross_entropy(logits, labels);
    let spec = BatchSpec {
        inputs: vec![InputPort { node: images, batch_axis: 0, domain: PortDomain::Real }],
        output: OutputPort { node: logits, batch_axis: 0 },
        capacity: batch,
    };
    let corpus = ImageCorpus::new(side, 3, classes, cfg.seed ^ 0xDA7A);
    Shell::new(
        meta,
        cfg,
        Parts {
            graph: g,
            params: p,
            optimizer,
            loss,
            infer: logits,
            metric: Metric::Accuracy(labels),
            keep: vec![loss, logits],
            spec: Some(spec),
            source: Images { corpus, images, labels, batch },
        },
    )
}
