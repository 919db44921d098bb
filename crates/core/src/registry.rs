//! Enumeration and construction of the eight workloads.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use fathom_nn::Params;
use fathom_tensor::Tensor;

use crate::models::{alexnet, autoenc, deepq, memnet, residual, seq2seq, speech, vgg};
use crate::workload::{BuildConfig, Workload, WorkloadMetadata};

/// The eight Fathom workloads, in the paper's Table II order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// Sequence-to-sequence translation.
    Seq2Seq,
    /// End-to-end memory network.
    Memnet,
    /// Deep Speech.
    Speech,
    /// Variational autoencoder.
    Autoenc,
    /// ResNet-34.
    Residual,
    /// VGG-19.
    Vgg,
    /// AlexNet.
    Alexnet,
    /// Deep Q-learning.
    Deepq,
}

impl ModelKind {
    /// All workloads, in Table II order.
    pub const ALL: [ModelKind; 8] = [
        ModelKind::Seq2Seq,
        ModelKind::Memnet,
        ModelKind::Speech,
        ModelKind::Autoenc,
        ModelKind::Residual,
        ModelKind::Vgg,
        ModelKind::Alexnet,
        ModelKind::Deepq,
    ];

    /// Canonical short name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Seq2Seq => "seq2seq",
            ModelKind::Memnet => "memnet",
            ModelKind::Speech => "speech",
            ModelKind::Autoenc => "autoenc",
            ModelKind::Residual => "residual",
            ModelKind::Vgg => "vgg",
            ModelKind::Alexnet => "alexnet",
            ModelKind::Deepq => "deepq",
        }
    }

    /// Table II metadata without building the model.
    pub fn metadata(&self) -> WorkloadMetadata {
        match self {
            ModelKind::Seq2Seq => seq2seq::metadata(),
            ModelKind::Memnet => memnet::metadata(),
            ModelKind::Speech => speech::metadata(),
            ModelKind::Autoenc => autoenc::metadata(),
            ModelKind::Residual => residual::metadata(),
            ModelKind::Vgg => vgg::metadata(),
            ModelKind::Alexnet => alexnet::metadata(),
            ModelKind::Deepq => deepq::metadata(),
        }
    }

    /// Builds the workload. Every model's session comes out of the one
    /// session builder in `models/common.rs`, which applies the whole
    /// config (seed, device, precision, fusion), so a model built
    /// directly (`Autoenc::build(&cfg)`) is the same as one built here.
    pub fn build(&self, cfg: &BuildConfig) -> Box<dyn Workload> {
        self.build_with(cfg, Params::seeded(cfg.seed))
    }

    /// Builds the workload around an existing weight set: every variable
    /// whose name and shape match an entry of `weights` shares that
    /// tensor instead of drawing its own ([`Params::adopting`]), and the
    /// rest are drawn with the bits [`ModelKind::build`] gives them. A
    /// serving replica uses it to add graphs at other batch extents
    /// that hold no weights of their own.
    pub fn build_adopting(
        &self,
        cfg: &BuildConfig,
        weights: &HashMap<String, Tensor>,
    ) -> Box<dyn Workload> {
        self.build_with(cfg, Params::adopting(cfg.seed, weights.clone()))
    }

    fn build_with(&self, cfg: &BuildConfig, p: Params) -> Box<dyn Workload> {
        match self {
            ModelKind::Seq2Seq => Box::new(seq2seq::Seq2Seq::build_with(cfg, p)),
            ModelKind::Memnet => Box::new(memnet::Memnet::build_with(cfg, p)),
            ModelKind::Speech => Box::new(speech::Speech::build_with(cfg, p)),
            ModelKind::Autoenc => Box::new(autoenc::Autoenc::build_with(cfg, p)),
            ModelKind::Residual => Box::new(residual::build_with(cfg, p)),
            ModelKind::Vgg => Box::new(vgg::build_with(cfg, p)),
            ModelKind::Alexnet => Box::new(alexnet::build_with(cfg, p)),
            ModelKind::Deepq => Box::new(deepq::Deepq::build_with(cfg, p)),
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for unrecognized workload names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError(String);

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload '{}' (expected one of: seq2seq, memnet, speech, autoenc, residual, vgg, alexnet, deepq)",
            self.0
        )
    }
}

impl std::error::Error for ParseModelError {}

impl FromStr for ModelKind {
    type Err = ParseModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::ALL
            .iter()
            .find(|k| k.name() == s)
            .copied()
            .ok_or_else(|| ParseModelError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_workloads_in_table_order() {
        let names: Vec<&str> = ModelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["seq2seq", "memnet", "speech", "autoenc", "residual", "vgg", "alexnet", "deepq"]
        );
    }

    #[test]
    fn metadata_matches_table_ii() {
        let meta = ModelKind::Residual.metadata();
        assert_eq!(meta.layers, 34);
        assert_eq!(meta.year, 2015);
        assert_eq!(ModelKind::Vgg.metadata().layers, 19);
        assert_eq!(ModelKind::Seq2Seq.metadata().layers, 7);
        assert_eq!(ModelKind::Deepq.metadata().task, "Reinforcement");
        assert_eq!(ModelKind::Autoenc.metadata().task, "Unsupervised");
    }

    #[test]
    fn parse_round_trips() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.name().parse::<ModelKind>().unwrap(), kind);
        }
        assert!("gpt4".parse::<ModelKind>().is_err());
    }

    /// Every named variable of `model`, sharing its buffer.
    fn weights(model: &dyn Workload) -> HashMap<String, Tensor> {
        let s = model.session();
        s.graph()
            .variables()
            .into_iter()
            .map(|id| {
                let name = s.graph().node(id).name.clone().expect("model variables are named");
                (name, s.variable_value(id).expect("variable").clone())
            })
            .collect()
    }

    #[test]
    fn adopted_variables_are_shared_and_the_rest_keep_their_bits() {
        for kind in ModelKind::ALL {
            let cfg = BuildConfig::inference().with_batch(2);
            let own = weights(kind.build(&cfg).as_ref());
            let other = weights(kind.build(&cfg.clone().with_seed(99)).as_ref());
            // Adopt every other variable of the seed-99 build: the rest
            // must still be drawn exactly as the seed-7 build draws them.
            let mut names: Vec<&String> = other.keys().collect();
            names.sort();
            let given: HashMap<String, Tensor> =
                names.iter().step_by(2).map(|&n| (n.clone(), other[n].clone())).collect();
            let adopted = weights(kind.build_adopting(&cfg, &given).as_ref());
            assert_eq!(adopted.len(), own.len(), "{kind}");
            for (name, value) in &adopted {
                match given.get(name) {
                    Some(t) => {
                        assert_eq!(value.data().as_ptr(), t.data().as_ptr(), "{kind}: {name}")
                    }
                    None => assert_eq!(value.data(), own[name].data(), "{kind}: {name} drawn"),
                }
            }
        }
    }
}
