//! `autoenc` — the variational autoencoder (Kingma & Welling, ICLR 2014).
//!
//! Three dense layers (encoder, latent head, decoder) trained
//! unsupervised on MNIST-shaped images by maximizing the evidence lower
//! bound. "These models are somewhat unique in that they require
//! stochastic sampling as part of inference, not just training" (paper
//! §IV) — the reparameterized `StandardRandomNormal` draw is on the
//! forward path in both modes.

use std::sync::Arc;

use fathom_data::mnist::{DigitCorpus, PIXELS};
use fathom_dataflow::{ExecError, NodeId, Optimizer, Session, TrainHandles};
use fathom_nn::{dense, loss::bernoulli_nll, vae, Activation, Params};

use crate::models::codec::{Dec, Enc};
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, Mode, ModelScale, OutputPort, PortDomain, StepStats,
    TrainProbes, Workload, WorkloadMetadata,
};

struct Dims {
    batch: usize,
    hidden: usize,
    latent: usize,
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => Dims { batch: 32, hidden: 128, latent: 16 },
        ModelScale::Full => Dims { batch: 100, hidden: 500, latent: 20 },
    }
}

/// Table II metadata for `autoenc`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "autoenc",
        year: 2014,
        reference: "Kingma & Welling, ICLR 2014",
        style: "Full",
        layers: 3,
        task: "Unsupervised",
        dataset: "MNIST",
        purpose: "Variational autoencoder. An efficient, generative model \
                  for feature learning.",
    }
}

/// The `autoenc` workload (variational autoencoder).
pub struct Autoenc {
    meta: WorkloadMetadata,
    mode: Mode,
    session: Session,
    corpus: DigitCorpus,
    images: NodeId,
    loss: NodeId,
    reconstruction: NodeId,
    train: Option<TrainHandles>,
    batch: usize,
}

impl Autoenc {
    /// Builds the workload per the configuration.
    pub fn build(cfg: &BuildConfig) -> Self {
        let mut d = dims(cfg.scale);
        d.batch = cfg.batch_or(d.batch);
        let mut g = fathom_dataflow::Graph::new();
        let mut p = Params::seeded(cfg.seed);
        let images = g.placeholder("images", [d.batch, PIXELS]);

        // Encoder.
        let h = dense(&mut g, &mut p, "encoder", images, d.hidden, Activation::Tanh);
        let mu = dense(&mut g, &mut p, "mu", h, d.latent, Activation::Linear);
        let logvar = dense(&mut g, &mut p, "logvar", h, d.latent, Activation::Linear);
        let sample = vae::latent_sample(&mut g, mu, logvar);

        // Decoder.
        let h2 = dense(&mut g, &mut p, "decoder", sample.z, d.hidden, Activation::Tanh);
        let reconstruction = dense(&mut g, &mut p, "output", h2, PIXELS, Activation::Sigmoid);

        // Negative ELBO.
        let recon = bernoulli_nll(&mut g, reconstruction, images);
        let loss = vae::elbo_loss(&mut g, recon, sample.kl, 1.0);

        let train = match cfg.mode {
            Mode::Training => {
                Some(Optimizer::adam(1e-3).minimize_tracked(&mut g, loss, p.trainable()))
            }
            Mode::Inference => None,
        };
        let mut session = Session::with_seed(g, cfg.device.clone(), cfg.seed);
        if cfg.fusion.enabled() {
            let mut keep = vec![loss, reconstruction];
            keep.extend(train.iter().flat_map(|h| [h.step, h.grad_norm]));
            session.enable_fusion(&keep);
        }
        Autoenc {
            meta: metadata(),
            mode: cfg.mode,
            session,
            corpus: DigitCorpus::new(cfg.seed ^ 0xD161),
            images,
            loss,
            reconstruction,
            train,
            batch: d.batch,
        }
    }

    /// Reconstructs a batch, returning `(input, reconstruction)` — used by
    /// the examples to visualize learned structure.
    pub fn reconstruct(&mut self) -> (fathom_tensor::Tensor, fathom_tensor::Tensor) {
        let (images, _) = self.corpus.batch(self.batch);
        let out = self
            .session
            .run(&[self.reconstruction], &[(self.images, images.clone())])
            .expect("workload graphs are well-formed");
        (images, out.into_iter().next().expect("one fetch"))
    }
}

impl Workload for Autoenc {
    fn metadata(&self) -> &WorkloadMetadata {
        &self.meta
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn try_step(&mut self) -> Result<StepStats, ExecError> {
        let rng_before = self.corpus.rng_state();
        let (images, _) = self.corpus.batch(self.batch);
        let result = match self.mode {
            Mode::Training => {
                let train = self.train.expect("training graph was built");
                self.session
                    .run(&[self.loss, train.grad_norm, train.step], &[(self.images, images)])
                    .map(|out| StepStats {
                        loss: Some(out[0].scalar_value()),
                        metric: None,
                        grad_norm: Some(out[1].scalar_value()),
                    })
            }
            Mode::Inference => {
                self.session.run(&[self.loss], &[(self.images, images)]).map(|out| StepStats {
                    loss: None,
                    metric: Some(out[0].scalar_value()),
                    grad_norm: None,
                })
            }
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
        // The latent draw consumes the session RNG row-major, so row i of
        // a batched run reads the same stream values as the i-th batch-1
        // run of a same-seed session — sampling stays bitwise aligned for
        // full batches.
        Some(BatchSpec {
            inputs: vec![InputPort { node: self.images, batch_axis: 0, domain: PortDomain::Real }],
            output: OutputPort { node: self.reconstruction, batch_axis: 0 },
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

#[cfg(test)]
mod tests {
    use super::*;
    use fathom_dataflow::OpKind;

    #[test]
    fn training_reduces_elbo() {
        let mut m = Autoenc::build(&BuildConfig::training());
        let first = m.step().loss.unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = m.step().loss.unwrap();
        }
        assert!(last < first, "ELBO did not improve: {first} -> {last}");
    }

    #[test]
    fn inference_path_samples() {
        let m = Autoenc::build(&BuildConfig::inference());
        assert!(m
            .session()
            .graph()
            .iter()
            .any(|(_, n)| matches!(n.kind, OpKind::StandardRandomNormal { .. })));
    }

    #[test]
    fn reconstruction_shape_matches_input() {
        let mut m = Autoenc::build(&BuildConfig::inference());
        let (input, recon) = m.reconstruct();
        assert_eq!(input.shape(), recon.shape());
        assert!(recon.min() >= 0.0 && recon.max() <= 1.0, "sigmoid output range");
    }
}
