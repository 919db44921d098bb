//! `autoenc` — the variational autoencoder (Kingma & Welling, ICLR 2014).
//!
//! Three dense layers (encoder, latent head, decoder) trained
//! unsupervised on MNIST-shaped images by maximizing the evidence lower
//! bound. "These models are somewhat unique in that they require
//! stochastic sampling as part of inference, not just training" (paper
//! §IV) — the reparameterized `StandardRandomNormal` draw is on the
//! forward path in both modes.

use fathom_data::mnist::{DigitCorpus, PIXELS};
use fathom_dataflow::{NodeId, Optimizer};
use fathom_nn::{dense, loss::bernoulli_nll, vae, Activation, Params};
use fathom_tensor::Tensor;

use crate::models::common::{BatchSource, Metric, Parts, Shell};
use crate::workload::{
    BatchSpec, BuildConfig, InputPort, ModelScale, OutputPort, PortDomain, WorkloadMetadata,
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
pub type Autoenc = Shell<Digits>;

/// `autoenc`'s batch source: MNIST-shaped images, labels unused.
pub struct Digits {
    corpus: DigitCorpus,
    images: NodeId,
    reconstruction: NodeId,
    batch: usize,
}

impl BatchSource for Digits {
    fn draw(&mut self) -> Vec<(NodeId, Tensor)> {
        let (images, _) = self.corpus.batch(self.batch);
        vec![(self.images, images)]
    }

    fn rng_state(&self) -> [u64; 4] {
        self.corpus.rng_state()
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.corpus.set_rng_state(state);
    }
}

impl Autoenc {
    /// Builds the workload per the configuration.
    pub fn build(cfg: &BuildConfig) -> Self {
        Self::build_with(cfg, Params::seeded(cfg.seed))
    }

    /// Builds the workload with its variables drawn from, or adopted
    /// by, `p` (see [`crate::ModelKind::build_adopting`]).
    pub(crate) fn build_with(cfg: &BuildConfig, mut p: Params) -> Self {
        let mut d = dims(cfg.scale);
        d.batch = cfg.batch_or(d.batch);
        let mut g = fathom_dataflow::Graph::new();
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

        // The latent draw consumes the session RNG row-major, so row i of
        // a batched run reads the same stream values as the i-th batch-1
        // run of a same-seed session — sampling stays bitwise aligned for
        // full batches.
        let spec = BatchSpec {
            inputs: vec![InputPort { node: images, batch_axis: 0, domain: PortDomain::Real }],
            output: OutputPort { node: reconstruction, batch_axis: 0 },
            capacity: d.batch,
        };
        let corpus = DigitCorpus::new(cfg.seed ^ 0xD161);
        Shell::new(
            metadata(),
            cfg,
            Parts {
                graph: g,
                params: p,
                optimizer: Optimizer::adam(1e-3),
                loss,
                infer: loss,
                metric: Metric::Value,
                keep: vec![loss, reconstruction],
                spec: Some(spec),
                source: Digits { corpus, images, reconstruction, batch: d.batch },
            },
        )
    }

    /// Reconstructs a batch, returning `(input, reconstruction)` — used by
    /// the examples to visualize learned structure.
    pub fn reconstruct(&mut self) -> (Tensor, Tensor) {
        let src = &mut self.source;
        let (images, _) = src.corpus.batch(src.batch);
        let out = self
            .session
            .run1(src.reconstruction, &[(src.images, images.clone())])
            .expect("workload graphs are well-formed");
        (images, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
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
