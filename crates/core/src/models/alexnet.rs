//! `alexnet` — the watershed deep convolutional image classifier
//! (Krizhevsky, Sutskever & Hinton, NIPS 2012).
//!
//! Topology (5 conv + 3 fully-connected layers, ReLU throughout, dropout
//! on the first two dense layers — the regularization AlexNet introduced):
//!
//! ```text
//! conv 11x11/4 -> pool 3/2 -> conv 5x5 -> pool 3/2 ->
//! conv 3x3 -> conv 3x3 -> conv 3x3 -> pool 3/2 ->
//! fc -> dropout -> fc -> dropout -> fc(classes)
//! ```
//!
//! Local response normalization is omitted (it was already dropped by the
//! community as ineffective; see DESIGN.md). At `ModelScale::Reference`
//! the input is 64x64 with reduced channel counts; `Full` uses the paper's
//! 224x224 / 96-384 channel configuration.

use fathom_dataflow::Optimizer;
use fathom_nn::{conv2d, dense, dropout, flatten, max_pool, Activation, Params};
use fathom_tensor::kernels::conv::Conv2dSpec;

use crate::models::common::{image_classifier, ImageClassifier};
use crate::workload::{BuildConfig, Mode, ModelScale, WorkloadMetadata};

/// Dimensions per scale.
struct Dims {
    batch: usize,
    side: usize,
    classes: usize,
    conv_channels: [usize; 5],
    fc: usize,
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => Dims {
            batch: 4,
            side: 64,
            classes: 10,
            conv_channels: [24, 48, 96, 96, 64],
            fc: 256,
        },
        ModelScale::Full => Dims {
            batch: 16,
            side: 224,
            classes: 1000,
            conv_channels: [96, 256, 384, 384, 256],
            fc: 4096,
        },
    }
}

/// Table II metadata for `alexnet`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "alexnet",
        year: 2012,
        reference: "Krizhevsky, Sutskever & Hinton, NIPS 2012",
        style: "Convolutional, Full",
        layers: 5,
        task: "Supervised",
        dataset: "ImageNet",
        purpose: "Image classifier. Watershed for deep learning by beating \
                  hand-tuned image systems at ILSVRC 2012.",
    }
}

/// Builds the `alexnet` workload per the configuration.
pub fn build(cfg: &BuildConfig) -> ImageClassifier {
    build_with(cfg, Params::seeded(cfg.seed))
}

/// Builds the workload with its variables drawn from, or adopted by, `p`.
pub(crate) fn build_with(cfg: &BuildConfig, p: Params) -> ImageClassifier {
    let mut d = dims(cfg.scale);
    d.batch = cfg.batch_or(d.batch);
    let training = cfg.mode == Mode::Training;
    image_classifier(
        metadata(),
        cfg,
        p,
        d.batch,
        d.side,
        d.classes,
        Optimizer::momentum(0.01),
        |g, p, images| {
            let [c1, c2, c3, c4, c5] = d.conv_channels;
            let x = conv2d(g, p, "conv1", images, 11, c1, Conv2dSpec { stride: 4, pad: 2 }, Activation::Relu);
            let x = max_pool(g, x, 3, 2);
            let x = conv2d(g, p, "conv2", x, 5, c2, Conv2dSpec::same(5), Activation::Relu);
            let x = max_pool(g, x, 3, 2);
            let x = conv2d(g, p, "conv3", x, 3, c3, Conv2dSpec::same(3), Activation::Relu);
            let x = conv2d(g, p, "conv4", x, 3, c4, Conv2dSpec::same(3), Activation::Relu);
            let x = conv2d(g, p, "conv5", x, 3, c5, Conv2dSpec::same(3), Activation::Relu);
            let x = max_pool(g, x, 3, 2);
            let x = flatten(g, x);
            let x = dense(g, p, "fc6", x, d.fc, Activation::Relu);
            let x = if training { dropout(g, x, 0.5) } else { x };
            let x = dense(g, p, "fc7", x, d.fc, Activation::Relu);
            let x = if training { dropout(g, x, 0.5) } else { x };
            dense(g, p, "fc8", x, d.classes, Activation::Linear)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use fathom_dataflow::OpKind;

    #[test]
    fn builds_and_steps_training() {
        let mut m = build(&BuildConfig::training());
        let stats = m.step();
        let loss = stats.loss.expect("training reports loss");
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn inference_reports_accuracy() {
        let mut m = build(&BuildConfig::inference());
        let stats = m.step();
        let acc = stats.metric.expect("inference reports accuracy");
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn training_graph_contains_dropout_but_inference_does_not() {
        let train = build(&BuildConfig::training());
        let infer = build(&BuildConfig::inference());
        let has_dropout = |m: &ImageClassifier| {
            m.session()
                .graph()
                .iter()
                .any(|(_, n)| matches!(n.kind, OpKind::DropoutMask { .. }))
        };
        assert!(has_dropout(&train), "AlexNet training uses dropout");
        assert!(!has_dropout(&infer));
    }

    #[test]
    fn has_five_conv_layers() {
        let m = build(&BuildConfig::inference());
        let convs = m
            .session()
            .graph()
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::Conv2D(_)))
            .count();
        assert_eq!(convs, 5);
    }
}
