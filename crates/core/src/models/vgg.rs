//! `vgg` — the 19-layer small-filter convolutional network (Simonyan &
//! Zisserman, arXiv 2014; ILSVRC 2014 localization winner).
//!
//! VGG-19's insight is that stacks of 3x3 filters are easier to train
//! than fewer large filters. Topology (16 conv + 3 dense = 19 layers):
//!
//! ```text
//! [conv3x3 x2, pool] [conv3x3 x2, pool] [conv3x3 x4, pool]
//! [conv3x3 x4, pool] [conv3x3 x4, pool] fc -> fc -> fc(classes)
//! ```

use fathom_dataflow::Optimizer;
use fathom_nn::{conv2d, dense, flatten, max_pool, Activation, Params};
use fathom_tensor::kernels::conv::Conv2dSpec;

use crate::models::common::{image_classifier, ImageClassifier};
use crate::workload::{BuildConfig, ModelScale, WorkloadMetadata};

/// Convolutions per stage in VGG-19.
const STAGE_CONVS: [usize; 5] = [2, 2, 4, 4, 4];

struct Dims {
    batch: usize,
    side: usize,
    classes: usize,
    stage_channels: [usize; 5],
    fc: usize,
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => Dims {
            batch: 2,
            side: 32,
            classes: 10,
            stage_channels: [16, 32, 64, 128, 128],
            fc: 128,
        },
        ModelScale::Full => Dims {
            batch: 8,
            side: 224,
            classes: 1000,
            stage_channels: [64, 128, 256, 512, 512],
            fc: 4096,
        },
    }
}

/// Table II metadata for `vgg`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "vgg",
        year: 2014,
        reference: "Simonyan & Zisserman, arXiv:1409.1556",
        style: "Convolutional, Full",
        layers: 19,
        task: "Supervised",
        dataset: "ImageNet",
        purpose: "Image classifier demonstrating the power of small \
                  convolutional filters. ILSVRC 2014 winner.",
    }
}

/// Builds the `vgg` workload per the configuration.
pub fn build(cfg: &BuildConfig) -> ImageClassifier {
    build_with(cfg, Params::seeded(cfg.seed))
}

/// Builds the workload with its variables drawn from, or adopted by, `p`.
pub(crate) fn build_with(cfg: &BuildConfig, p: Params) -> ImageClassifier {
    let mut d = dims(cfg.scale);
    d.batch = cfg.batch_or(d.batch);
    image_classifier(
        metadata(),
        cfg,
        p,
        d.batch,
        d.side,
        d.classes,
        Optimizer::momentum(0.01),
        |g, p, images| {
            let mut x = images;
            for (stage, (&convs, &channels)) in
                STAGE_CONVS.iter().zip(&d.stage_channels).enumerate()
            {
                for i in 0..convs {
                    x = conv2d(
                        g,
                        p,
                        &format!("conv{}_{}", stage + 1, i + 1),
                        x,
                        3,
                        channels,
                        Conv2dSpec::same(3),
                        Activation::Relu,
                    );
                }
                x = max_pool(g, x, 2, 2);
            }
            let x = flatten(g, x);
            let x = dense(g, p, "fc6", x, d.fc, Activation::Relu);
            let x = dense(g, p, "fc7", x, d.fc, Activation::Relu);
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
    fn has_sixteen_convs_and_three_dense() {
        let m = build(&BuildConfig::inference());
        let g = m.session().graph();
        let convs = g.iter().filter(|(_, n)| matches!(n.kind, OpKind::Conv2D(_))).count();
        assert_eq!(convs, 16);
        // Three dense layers = three forward MatMuls in inference mode.
        let matmuls = g
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::MatMul { .. }))
            .count();
        assert_eq!(matmuls, 3);
    }

    #[test]
    fn all_filters_are_3x3() {
        let m = build(&BuildConfig::inference());
        for (_, n) in m.session().graph().iter() {
            if matches!(n.kind, OpKind::Conv2D(_)) {
                let filter = m.session().graph().shape(n.inputs[1]);
                assert_eq!(filter.dim(0), 3);
                assert_eq!(filter.dim(1), 3);
            }
        }
    }

    #[test]
    fn training_step_produces_finite_loss() {
        let mut m = build(&BuildConfig::training());
        let stats = m.step();
        assert!(stats.loss.unwrap().is_finite());
    }
}
