//! Integration: values are shared, not copied.
//!
//! Tensor storage is copy-on-write: reading a variable, a constant or a
//! fed placeholder, `Identity`, `StopGradient` and `Reshape` hand out the
//! buffer they read, and `Apply` writes its results into fresh buffers
//! while the undo journal shares the old ones. A write to a shared buffer
//! still copies it, and the arena counts those bytes as the session's
//! `copied_bytes` runtime counter. These tests pin that counter for all
//! eight workloads on the serial walk and on the pool driver, fused and
//! unfused, over steady steps (after two warm-up steps):
//!
//! * an inference step copies nothing at all;
//! * a training step makes no copy as large as the model's smallest
//!   variable — it copies fewer bytes in total than that variable holds.
//!
//! Sixty-four short runs take seconds in release and minutes in debug,
//! so the tests run in the release build only (tier-1's
//! `runtime-oversubscribed` stage).

use fathom_suite::fathom::{BuildConfig, ModelKind, Workload};
use fathom_suite::fathom_dataflow::Device;

const WARM_UP: usize = 2;
const STEADY: usize = 3;

fn drivers() -> [(&'static str, Device); 2] {
    [("cpu(1)", Device::cpu(1)), ("cpu_inter_op(2, 2)", Device::cpu_inter_op(2, 2))]
}

/// Bytes `model` copies over `STEADY` steps after `WARM_UP` steps.
fn steady_copied_bytes(model: &mut dyn Workload) -> u64 {
    for _ in 0..WARM_UP {
        model.step();
    }
    let warm = model.session().runtime_counters().copied_bytes;
    for _ in 0..STEADY {
        model.step();
    }
    model.session().runtime_counters().copied_bytes - warm
}

#[test]
#[cfg_attr(debug_assertions, ignore = "32 five-step inference runs: run with --release")]
fn steady_inference_steps_copy_nothing() {
    let mut copied = Vec::new();
    for kind in ModelKind::ALL {
        for (driver, device) in drivers() {
            for fused in [false, true] {
                let cfg = BuildConfig::inference().with_device(device.clone()).with_fusion(fused);
                let bytes = steady_copied_bytes(&mut *kind.build(&cfg));
                if bytes != 0 {
                    copied.push(format!("{kind} on {driver} (fused: {fused}): {bytes} B"));
                }
            }
        }
    }
    assert!(copied.is_empty(), "inference steps copied:\n{}", copied.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "32 five-step training runs: run with --release")]
fn steady_training_steps_copy_less_than_the_smallest_variable() {
    let mut copied = Vec::new();
    for kind in ModelKind::ALL {
        for (driver, device) in drivers() {
            for fused in [false, true] {
                let cfg = BuildConfig::training().with_device(device.clone()).with_fusion(fused);
                let mut model = kind.build(&cfg);
                let bytes = steady_copied_bytes(&mut *model);
                let session = model.session();
                let smallest = session
                    .graph()
                    .variables()
                    .into_iter()
                    .map(|id| session.variable_value(id).expect("variable is live").len() as u64 * 4)
                    .min()
                    .expect("a trained model has variables");
                if bytes >= smallest {
                    copied.push(format!(
                        "{kind} on {driver} (fused: {fused}): {bytes} B, smallest variable {smallest} B"
                    ));
                }
            }
        }
    }
    assert!(copied.is_empty(), "training steps copied a variable's worth:\n{}", copied.join("\n"));
}
