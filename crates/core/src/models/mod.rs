//! The eight reference workloads.

mod codec;
mod common;

pub use common::{BatchSource, ImageClassifier, Images, Shell};

pub mod alexnet;
pub mod autoenc;
pub mod deepq;
pub mod memnet;
pub mod residual;
pub mod seq2seq;
pub mod speech;
pub mod vgg;
