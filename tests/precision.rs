//! Integration: bf16, the one reduced precision, holds accuracy and
//! determinism on every workload. Each leg runs `STEPS` inference steps
//! over the same seeded batch stream as an f32 reference:
//!
//! 1. bf16 panels (f32 accumulation) keep the mean metric within
//!    `TOLERANCE` of the reference;
//! 2. bf16 is bitwise identical serial vs `WORKERS` workers.

use fathom_suite::fathom::models::{autoenc::Autoenc, deepq::Deepq, memnet::Memnet, seq2seq::Seq2Seq};
use fathom_suite::fathom::{BuildConfig, ModelKind, Precision, Workload};
use fathom_suite::fathom_dataflow::Device;

/// Inference steps per leg.
const STEPS: usize = 4;
/// Width of the parallel legs.
const WORKERS: usize = 4;
/// Largest mean-metric deviation tolerated for bf16.
const TOLERANCE: f32 = 0.05;

fn build(kind: ModelKind, precision: Precision, device: Device) -> Box<dyn Workload> {
    kind.build(&BuildConfig::inference().with_device(device).with_precision(precision))
}

/// The metric of each of `steps` inference steps.
fn metrics(model: &mut dyn Workload, steps: usize) -> Vec<f32> {
    (0..steps).map(|_| model.step().metric.expect("inference reports a metric")).collect()
}

/// Deviation of a mean metric from the reference's: relative above 1,
/// absolute below — accuracies and confidences live in [0, 1], where a
/// ratio would explode near zero.
fn deviation(got: &[f32], want: &[f32]) -> f32 {
    let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len() as f32;
    (mean(got) - mean(want)).abs() / mean(want).abs().max(1.0)
}

#[test]
fn bf16_holds_accuracy_and_is_deterministic_on_every_workload() {
    for kind in ModelKind::ALL {
        let reference = metrics(&mut *build(kind, Precision::F32, Device::cpu(1)), STEPS);

        let bf16 = metrics(&mut *build(kind, Precision::Bf16, Device::cpu(1)), STEPS);
        let dev = deviation(&bf16, &reference);
        assert!(dev <= TOLERANCE, "{kind}: bf16 deviates {dev} from f32");

        let wide = Device::cpu_inter_op(WORKERS, WORKERS);
        let parallel = metrics(&mut *build(kind, Precision::Bf16, wide), STEPS);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&parallel), bits(&bf16), "{kind}: bf16 serial vs {WORKERS} workers");
    }
}

#[test]
fn a_direct_model_build_runs_at_the_configured_precision() {
    // The examples and the convergence tests build models without going
    // through `ModelKind::build`; the precision must hold there too.
    let cfg = BuildConfig::training().with_precision(Precision::Bf16);
    let built: [(&str, Box<dyn Workload>); 4] = [
        ("autoenc", Box::new(Autoenc::build(&cfg))),
        ("seq2seq", Box::new(Seq2Seq::build(&cfg))),
        ("memnet", Box::new(Memnet::build(&cfg))),
        ("deepq", Box::new(Deepq::build(&cfg))),
    ];
    for (name, model) in built {
        assert_eq!(model.session().precision(), Precision::Bf16, "{name}");
    }
}
