//! `residual` — deep residual networks (He, Zhang, Ren & Sun, arXiv 2015;
//! winner of all five ILSVRC 2015 tracks).
//!
//! ResNet-34 topology: a stem convolution, four stages of basic blocks
//! (`[3, 4, 6, 3]` blocks, two 3x3 convolutions each) with identity
//! shortcuts, batch normalization after every convolution, global average
//! pooling, and a single dense classifier — 34 weight layers in total.
//! The identity connections "effectively train these layers on the
//! difference between input and output" (paper §IV).

use fathom_dataflow::{Graph, NodeId, Optimizer};
use fathom_nn::{avg_pool, batch_norm, conv2d, dense, flatten, instance_norm, Activation, Params};
use fathom_tensor::kernels::conv::Conv2dSpec;

use crate::models::common::{image_classifier, ImageClassifier};
use crate::workload::{BuildConfig, Mode, ModelScale, WorkloadMetadata};

/// Blocks per stage in ResNet-34.
const STAGE_BLOCKS: [usize; 4] = [3, 4, 6, 3];

struct Dims {
    batch: usize,
    side: usize,
    classes: usize,
    stage_channels: [usize; 4],
}

fn dims(scale: ModelScale) -> Dims {
    match scale {
        ModelScale::Reference => Dims {
            batch: 2,
            side: 32,
            classes: 10,
            stage_channels: [16, 32, 64, 128],
        },
        ModelScale::Full => Dims {
            batch: 8,
            side: 224,
            classes: 1000,
            stage_channels: [64, 128, 256, 512],
        },
    }
}

/// Table II metadata for `residual`.
pub fn metadata() -> WorkloadMetadata {
    WorkloadMetadata {
        name: "residual",
        year: 2015,
        reference: "He, Zhang, Ren & Sun, arXiv:1512.03385",
        style: "Convolutional",
        layers: 34,
        task: "Supervised",
        dataset: "ImageNet",
        purpose: "Image classifier from Microsoft Research Asia. Dramatically \
                  increased the practical depth of convolutional networks. \
                  ILSVRC 2015 winner.",
    }
}

/// The normalization layer applied after every convolution. Training
/// graphs use classic batch statistics; inference graphs use the
/// per-sample variant so batched serving output is independent of
/// batchmates (see [`instance_norm`]). Both share parameter names, so
/// checkpoints move freely between the two graphs.
type NormFn = fn(&mut Graph, &mut Params, &str, NodeId, f32) -> NodeId;

fn norm_for(mode: Mode) -> NormFn {
    match mode {
        Mode::Training => batch_norm,
        Mode::Inference => instance_norm,
    }
}

/// One basic residual block: two 3x3 conv+norm layers with an identity
/// (or 1x1-projection) shortcut.
#[allow(clippy::too_many_arguments)]
fn basic_block(
    g: &mut Graph,
    p: &mut Params,
    name: &str,
    x: NodeId,
    channels: usize,
    stride: usize,
    norm: NormFn,
) -> NodeId {
    let in_channels = g.shape(x).dim(3);
    let c1 = conv2d(
        g,
        p,
        &format!("{name}/conv1"),
        x,
        3,
        channels,
        Conv2dSpec { stride, pad: 1 },
        Activation::Linear,
    );
    let b1 = norm(g, p, &format!("{name}/bn1"), c1, 1e-5);
    let a1 = g.relu(b1);
    let c2 = conv2d(
        g,
        p,
        &format!("{name}/conv2"),
        a1,
        3,
        channels,
        Conv2dSpec::same(3),
        Activation::Linear,
    );
    let b2 = norm(g, p, &format!("{name}/bn2"), c2, 1e-5);
    let shortcut = if stride != 1 || in_channels != channels {
        // Projection shortcut: 1x1 convolution matching shape.
        let proj = conv2d(
            g,
            p,
            &format!("{name}/proj"),
            x,
            1,
            channels,
            Conv2dSpec { stride, pad: 0 },
            Activation::Linear,
        );
        norm(g, p, &format!("{name}/proj_bn"), proj, 1e-5)
    } else {
        x
    };
    let sum = g.add_op(b2, shortcut);
    g.relu(sum)
}

/// Builds the `residual` workload per the configuration.
pub fn build(cfg: &BuildConfig) -> ImageClassifier {
    build_with(cfg, Params::seeded(cfg.seed))
}

/// Builds the workload with its variables drawn from, or adopted by, `p`.
pub(crate) fn build_with(cfg: &BuildConfig, p: Params) -> ImageClassifier {
    let mut d = dims(cfg.scale);
    d.batch = cfg.batch_or(d.batch);
    let full = cfg.scale == ModelScale::Full;
    let norm = norm_for(cfg.mode);
    image_classifier(
        metadata(),
        cfg,
        p,
        d.batch,
        d.side,
        d.classes,
        Optimizer::momentum(0.01),
        |g, p, images| {
            // Stem: 7x7/2 + maxpool at full scale, 3x3 at reference
            // (the standard CIFAR-style adaptation for small inputs).
            let mut x = if full {
                let c = conv2d(
                    g,
                    p,
                    "stem",
                    images,
                    7,
                    d.stage_channels[0],
                    Conv2dSpec { stride: 2, pad: 3 },
                    Activation::Linear,
                );
                let b = norm(g, p, "stem_bn", c, 1e-5);
                let r = g.relu(b);
                fathom_nn::max_pool(g, r, 3, 2)
            } else {
                let c = conv2d(
                    g,
                    p,
                    "stem",
                    images,
                    3,
                    d.stage_channels[0],
                    Conv2dSpec::same(3),
                    Activation::Linear,
                );
                let b = norm(g, p, "stem_bn", c, 1e-5);
                g.relu(b)
            };
            for (stage, (&blocks, &channels)) in
                STAGE_BLOCKS.iter().zip(&d.stage_channels).enumerate()
            {
                for block in 0..blocks {
                    let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                    x = basic_block(
                        g,
                        p,
                        &format!("stage{}/block{}", stage + 1, block + 1),
                        x,
                        channels,
                        stride,
                        norm,
                    );
                }
            }
            // Global average pooling.
            let spatial = g.shape(x).dim(1);
            let pooled = avg_pool(g, x, spatial, spatial);
            let flat = flatten(g, pooled);
            dense(g, p, "fc", flat, d.classes, Activation::Linear)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use fathom_dataflow::OpKind;
    use fathom_tensor::kernels::fused::FusedOp;

    #[test]
    fn weight_layer_count_is_34() {
        // 34 = stem + 32 block convs + final dense; projection shortcuts
        // are extra parameters but not counted as layers (per the paper).
        let m = build(&BuildConfig::inference());
        let g = m.session().graph();
        let convs = g.iter().filter(|(_, n)| matches!(n.kind, OpKind::Conv2D(_))).count();
        let projections = STAGE_BLOCKS.len() - 1; // stages 2-4 change shape
        assert_eq!(convs - projections, 33, "stem + 32 block convolutions");
        let dense_layers = g
            .iter()
            .filter(|(_, n)| matches!(n.kind, OpKind::MatMul { .. }))
            .count();
        assert_eq!(dense_layers, 1, "single classification layer");
    }

    #[test]
    fn shortcut_addition_present_in_every_block() {
        // Each of the 16 blocks ends in an Add feeding a Relu.
        let m = build(&BuildConfig::inference());
        let g = m.session().graph();
        let mut shortcut_adds = 0;
        for (id, n) in g.iter() {
            if matches!(n.kind, OpKind::Elementwise(FusedOp::Relu)) {
                let input = g.node(n.inputs[0]);
                if matches!(input.kind, OpKind::Elementwise(FusedOp::Add))
                    && g.shape(id).rank() == 4
                    && g.shape(input.inputs[0]) == g.shape(input.inputs[1])
                {
                    shortcut_adds += 1;
                }
            }
        }
        assert!(shortcut_adds >= 16, "found {shortcut_adds} residual additions");
    }

    #[test]
    fn training_step_produces_finite_loss() {
        let mut m = build(&BuildConfig::training());
        let stats = m.step();
        assert!(stats.loss.unwrap().is_finite());
    }
}
