//! Integration: the fusion passes (elementwise groups and GEMM
//! epilogues) are an exact optimisation. With fusion enabled, every
//! workload must train and infer to bit-identical numbers — losses,
//! metrics, and checkpoint bytes — as the unfused build, serially and
//! under the inter-op scheduler; and both passes must actually fire.

use fathom_suite::fathom::{BuildConfig, ModelKind};
use fathom_suite::fathom_dataflow::{checkpoint, Device, OpKind};

/// Train `steps` steps and return the per-step loss bits plus the final
/// checkpoint bytes (variables only — directly comparable across graphs
/// that differ only in fused interiors).
fn train(kind: ModelKind, fusion: bool, device: Device, steps: usize) -> (Vec<u32>, Vec<u8>) {
    let cfg = BuildConfig::training().with_fusion(fusion).with_device(device);
    let mut model = kind.build(&cfg);
    let losses = (0..steps)
        .map(|_| {
            let stats = model.step();
            stats.loss.unwrap_or_else(|| panic!("{kind} training must report a loss")).to_bits()
        })
        .collect();
    let mut bytes = Vec::new();
    checkpoint::save(model.session(), &mut bytes).expect("checkpoint serialises");
    (losses, bytes)
}

#[test]
fn fused_training_is_bitwise_identical_across_all_workloads() {
    for kind in ModelKind::ALL {
        let (reference, vars) = train(kind, false, Device::cpu(1), 2);
        let (fused, fused_vars) = train(kind, true, Device::cpu(1), 2);
        assert_eq!(reference, fused, "{kind}: fused serial losses diverged");
        assert_eq!(vars, fused_vars, "{kind}: fused serial variables diverged");
        let (parallel, parallel_vars) = train(kind, true, Device::cpu_inter_op(2, 2), 2);
        assert_eq!(reference, parallel, "{kind}: fused parallel losses diverged");
        assert_eq!(vars, parallel_vars, "{kind}: fused parallel variables diverged");
    }
}

#[test]
fn fused_inference_is_bitwise_identical_across_all_workloads() {
    for kind in ModelKind::ALL {
        let bits = |fusion: bool| {
            let mut model = kind.build(&BuildConfig::inference().with_fusion(fusion));
            let stats = model.step();
            (stats.loss.map(f32::to_bits), stats.metric.map(f32::to_bits))
        };
        assert_eq!(bits(false), bits(true), "{kind}: fused inference diverged");
    }
}

#[test]
fn fusion_finds_groups_somewhere_in_the_suite() {
    // (elementwise groups, GEMM-epilogue groups) summed over the suite:
    // either pass finding nothing anywhere means it is dead.
    let (fused, gemm_fused) = ModelKind::ALL
        .iter()
        .map(|kind| {
            let model = kind.build(&BuildConfig::training().with_fusion(true));
            let count = |pick: fn(&OpKind) -> bool| {
                model.session().graph().iter().filter(|(_, n)| pick(&n.kind)).count()
            };
            (
                count(|k| matches!(k, OpKind::Fused(_))),
                count(|k| matches!(k, OpKind::GemmFused { .. })),
            )
        })
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    assert!(fused > 0, "fusion pass found nothing to fuse in any workload");
    assert!(gemm_fused > 0, "GEMM-epilogue fusion never fired on any workload");
}
