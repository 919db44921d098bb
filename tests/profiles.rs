//! Integration: the op-type profiles of the workloads show the structure
//! the paper's Figure 3 reports.

use fathom_suite::fathom::{BuildConfig, ModelKind};
use fathom_suite::fathom_dataflow::OpClass;
use fathom_suite::fathom_profile::{runner, OpProfile, SkewCurve};

/// One warm-up step, then two profiled: a cold first step is mostly
/// first-touch page faults in whichever op allocates the big buffers.
/// One profile at a time: these tests compare op *times*, and the
/// harness would otherwise run eight of them on however few cores the
/// host has, charging each op for its neighbours' preemptions.
fn training_profile(kind: ModelKind) -> OpProfile {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    runner::profile_workload(kind, &BuildConfig::training(), 1, 2)
}

fn class_share(p: &OpProfile, class: OpClass) -> f64 {
    p.class_fractions()
        .iter()
        .find(|(c, _)| *c == class)
        .map(|(_, f)| *f)
        .expect("class always present")
}

/// Figure 3's claim is the ordering — class B on top of these four — not
/// a fixed share: a share is a ratio of this repo's kernel speeds, and
/// convolution's fell from 0.6-0.9 to 0.35-0.65 when it moved onto the
/// FMA GEMM engine while the elementwise, reduction and optimizer ops it
/// is measured against stayed where they were.
#[test]
fn conv_nets_are_convolution_dominated() {
    for kind in [ModelKind::Alexnet, ModelKind::Vgg, ModelKind::Residual, ModelKind::Deepq] {
        let p = training_profile(kind);
        let conv = class_share(&p, OpClass::Convolution);
        let top = p.class_fractions().iter().map(|(_, f)| *f).fold(0.0, f64::max);
        assert!(conv == top && conv > 0.3, "{kind}: convolution share {conv:.2} is not on top ({top:.2})");
    }
}

/// As above for class A. `autoenc`'s handful of matmuls share its steps
/// with an Adam update over the same weights, so its bound is the looser
/// one.
#[test]
fn fully_connected_nets_are_matmul_dominated() {
    for (kind, floor) in [(ModelKind::Speech, 0.4), (ModelKind::Autoenc, 0.2)] {
        let p = training_profile(kind);
        let matrix = class_share(&p, OpClass::MatrixOps);
        assert!(matrix > floor, "{kind}: matrix share {matrix:.2} too low");
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
