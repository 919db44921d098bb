//! Integration: the reduced-precision paths hold accuracy and
//! determinism on every workload. Each leg runs inference over the same
//! seeded batch stream as an f32 reference of `2 * STEPS` steps:
//!
//! 1. bf16 panels (f32 accumulation) keep the mean metric within
//!    `TOLERANCE` of the reference;
//! 2. bf16 is bitwise identical serial vs `WORKERS` workers;
//! 3. per-channel int8 — calibrate on the first `STEPS` batches,
//!    quantize, serve the next `STEPS` — keeps the mean metric within
//!    `TOLERANCE` of the reference's tail.

use fathom_suite::fathom::{BuildConfig, ModelKind, Precision, Workload};
use fathom_suite::fathom_dataflow::Device;

/// Calibration steps, and serving steps after quantization.
const STEPS: usize = 2;
/// Width of the parallel legs.
const WORKERS: usize = 4;
/// Largest mean-metric deviation tolerated for bf16 and int8.
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
fn bf16_and_int8_hold_accuracy_and_bf16_is_deterministic_on_every_workload() {
    for kind in ModelKind::ALL {
        let reference = metrics(&mut *build(kind, Precision::F32, Device::cpu(1)), 2 * STEPS);

        let bf16 = metrics(&mut *build(kind, Precision::Bf16, Device::cpu(1)), 2 * STEPS);
        let dev = deviation(&bf16, &reference);
        assert!(dev <= TOLERANCE, "{kind}: bf16 deviates {dev} from f32");

        let wide = Device::cpu_inter_op(WORKERS, WORKERS);
        let parallel = metrics(&mut *build(kind, Precision::Bf16, wide), 2 * STEPS);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&parallel), bits(&bf16), "{kind}: bf16 serial vs {WORKERS} workers");

        // Calibration runs unquantized, so it reads the reference's first
        // half; the quantized tail is judged against the reference's.
        let mut int8 = build(kind, Precision::F32, Device::cpu(WORKERS));
        int8.session_mut().begin_calibration();
        metrics(&mut *int8, STEPS);
        int8.session_mut().finish_calibration();
        if let Err(e) = int8.session_mut().quantize_from_calibration() {
            panic!("{kind}: int8 quantization failed: {e}");
        }
        let dev = deviation(&metrics(&mut *int8, STEPS), &reference[STEPS..]);
        assert!(dev <= TOLERANCE, "{kind}: int8 deviates {dev} from f32");
    }
}
