//! Enumeration and construction of the eight workloads.

use std::fmt;
use std::str::FromStr;

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
        match self {
            ModelKind::Seq2Seq => Box::new(seq2seq::Seq2Seq::build(cfg)),
            ModelKind::Memnet => Box::new(memnet::Memnet::build(cfg)),
            ModelKind::Speech => Box::new(speech::Speech::build(cfg)),
            ModelKind::Autoenc => Box::new(autoenc::Autoenc::build(cfg)),
            ModelKind::Residual => Box::new(residual::build(cfg)),
            ModelKind::Vgg => Box::new(vgg::build(cfg)),
            ModelKind::Alexnet => Box::new(alexnet::build(cfg)),
            ModelKind::Deepq => Box::new(deepq::Deepq::build(cfg)),
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
}
