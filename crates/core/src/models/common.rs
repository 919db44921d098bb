//! Shared harness for the three ImageNet-style classifier workloads.

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

/// An image classifier driven by the synthetic ImageNet stand-in: feeds a
/// fresh minibatch per step, runs cross-entropy training or batched
/// inference, and reports loss/accuracy.
pub(crate) struct ImageClassifier {
    meta: WorkloadMetadata,
    mode: Mode,
    session: Session,
    corpus: ImageCorpus,
    images: NodeId,
    labels: NodeId,
    logits: NodeId,
    loss: NodeId,
    train: Option<TrainHandles>,
    batch: usize,
}

impl ImageClassifier {
    /// Builds the harness around a model-specific logits builder.
    ///
    /// `build_logits` receives `(graph, params, images_node)` and must
    /// return a `[batch, classes]` logits node.
    pub(crate) fn new(
        meta: WorkloadMetadata,
        cfg: &BuildConfig,
        batch: usize,
        side: usize,
        classes: usize,
        optimizer: Optimizer,
        build_logits: impl FnOnce(&mut Graph, &mut Params, NodeId) -> NodeId,
    ) -> Self {
        let mut g = Graph::new();
        let mut p = Params::seeded(cfg.seed);
        let images = g.placeholder("images", [batch, side, side, 3]);
        let labels = g.placeholder("labels", [batch]);
        let logits = build_logits(&mut g, &mut p, images);
        assert_eq!(
            g.shape(logits).dims(),
            &[batch, classes],
            "model produced wrong logits shape"
        );
        let loss = g.softmax_cross_entropy(logits, labels);
        let train = match cfg.mode {
            Mode::Training => Some(optimizer.minimize_tracked(&mut g, loss, p.trainable())),
            Mode::Inference => None,
        };
        let mut session = Session::with_seed(g, cfg.device.clone(), cfg.seed);
        if cfg.fusion.enabled() {
            let mut keep = vec![loss, logits];
            keep.extend(train.iter().flat_map(|h| [h.step, h.grad_norm]));
            session.enable_fusion(&keep);
        }
        let corpus = ImageCorpus::new(side, 3, classes, cfg.seed ^ 0xDA7A);
        ImageClassifier {
            meta,
            mode: cfg.mode,
            session,
            corpus,
            images,
            labels,
            logits,
            loss,
            train,
            batch,
        }
    }

    fn accuracy(logits: &Tensor, labels: &Tensor) -> f32 {
        let pred = logits.argmax_last_axis();
        let correct = pred
            .data()
            .iter()
            .zip(labels.data())
            .filter(|(a, b)| a == b)
            .count();
        correct as f32 / labels.len().max(1) as f32
    }
}

impl Workload for ImageClassifier {
    fn metadata(&self) -> &WorkloadMetadata {
        &self.meta
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn try_step(&mut self) -> Result<StepStats, ExecError> {
        // Draw the batch from a probe of the stream, and only advance
        // the corpus RNG after the run commits: a failed (or tripped)
        // step must leave the pipeline exactly where it started.
        let rng_before = self.corpus.rng_state();
        let (images, labels) = self.corpus.batch(self.batch);
        let result = match self.mode {
            Mode::Training => {
                let train = self.train.expect("training graph was built");
                self.session
                    .run(
                        &[self.loss, train.grad_norm, train.step],
                        &[(self.images, images), (self.labels, labels)],
                    )
                    .map(|out| StepStats {
                        loss: Some(out[0].scalar_value()),
                        metric: None,
                        grad_norm: Some(out[1].scalar_value()),
                    })
            }
            Mode::Inference => self
                .session
                .run(&[self.logits], &[(self.images, images), (self.labels, labels.clone())])
                .map(|out| StepStats {
                    loss: None,
                    metric: Some(Self::accuracy(&out[0], &labels)),
                    grad_norm: None,
                }),
        };
        if result.is_err() {
            self.corpus.set_rng_state(rng_before);
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
        if self.mode != Mode::Inference {
            return None;
        }
        Some(BatchSpec {
            inputs: vec![InputPort { node: self.images, batch_axis: 0, domain: PortDomain::Real }],
            output: OutputPort { node: self.logits, batch_axis: 0 },
            capacity: self.batch,
        })
    }

    fn train_probes(&self) -> Option<TrainProbes> {
        self.train.map(|h| TrainProbes { loss: self.loss, grad_norm: h.grad_norm })
    }

    fn pipeline_parts(&self) -> Vec<Arc<[u8]>> {
        let mut e = Enc::new(self.meta.name);
        e.rng(self.corpus.rng_state());
        vec![e.finish().into()]
    }

    fn import_pipeline(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut d = Dec::new(self.meta.name, blob)?;
        let state = d.rng()?;
        d.done()?;
        self.corpus.set_rng_state(state);
        Ok(())
    }

    fn skip_batch(&mut self) {
        let _ = self.corpus.batch(self.batch);
    }
}
