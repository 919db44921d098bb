//! Integration: the f32 variable checkpoints of all eight workloads are
//! pinned.
//!
//! Each workload trains 5 steps at seed 7 on the serial walk
//! (`Device::cpu(1)`) and on the pool driver (`Device::cpu_inter_op(2,
//! 2)`), then saves its variables: the bytes `fathom run <model> --steps 5
//! --seed 7 --threads T --inter-ops T --save f` writes for T = 1 and 2.
//! Serial == parallel, so both devices must produce the one pinned hash. A
//! change to a kernel, the executor, fusion or the optimizers that moves a
//! bit of any trained variable fails here.
//!
//! The hashes were recorded on x86-64 Linux. The f32 kernels return the
//! same bits on every host; bf16 is left out because its bits depend on
//! whether the host has native bf16 dot products.
//!
//! A second test pins, per workload, the whole resume state after 3
//! steps (variables, optimizer slots, session RNG and the workload's
//! pipeline blob) and the inference metrics of its first 3 steps: what
//! the workload shell around each model draws, runs and encodes.
//!
//! Sixteen training runs take seconds in release and minutes in debug, so
//! the tests run in the release build only (tier-1's
//! `runtime-oversubscribed` stage).

use fathom_suite::fathom::{BuildConfig, ModelKind};
use fathom_suite::fathom_dataflow::checkpoint::TrainCursor;
use fathom_suite::fathom_dataflow::{checkpoint, Device};

/// FNV-1a, 64-bit, over a whole checkpoint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "16 five-step training runs: run with --release")]
fn f32_checkpoints_keep_their_bytes_on_both_drivers() {
    let pinned = [
        (ModelKind::Seq2Seq, 0xf3d3_05bf_af69_e3be_u64),
        (ModelKind::Memnet, 0x50a2_6471_7803_9672),
        (ModelKind::Speech, 0x23ef_5b68_48cc_31fd),
        (ModelKind::Autoenc, 0x0240_67d4_cad2_fecf),
        (ModelKind::Residual, 0xd17a_e4e0_b12c_1c3c),
        (ModelKind::Vgg, 0xa371_fadb_ec29_1eb5),
        (ModelKind::Alexnet, 0x828f_8dd4_82a4_3076),
        (ModelKind::Deepq, 0x3088_ce53_2344_9e22),
    ];
    let drivers = || [("cpu(1)", Device::cpu(1)), ("cpu_inter_op(2, 2)", Device::cpu_inter_op(2, 2))];
    let mut moved = Vec::new();
    for (kind, want) in pinned {
        for (driver, device) in drivers() {
            let cfg = BuildConfig::training().with_device(device).with_seed(7);
            let mut model = kind.build(&cfg);
            for _ in 0..5 {
                model.step();
            }
            let mut bytes = Vec::new();
            checkpoint::save(model.session(), &mut bytes).expect("saves");
            let got = fnv1a(&bytes);
            if got != want {
                moved.push(format!("{} on {driver}: {got:#018x}, pinned {want:#018x}", kind.name()));
            }
        }
    }
    assert!(moved.is_empty(), "checkpoints changed bytes:\n{}", moved.join("\n"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "8 three-step training runs: run with --release")]
fn resume_states_and_inference_metrics_keep_their_bits() {
    // (workload, resume checkpoint after 3 training steps, the bits of
    // inference steps 1-3's metrics), all at seed 7 on `cpu(1)`. Three
    // zero accuracies (residual, vgg at batch 2) and three rewardless
    // frames (deepq) share one metrics hash.
    let pinned = [
        (ModelKind::Seq2Seq, 0x093c_a0c0_8493_8e67_u64, 0x1062_f3ba_2caa_d97d_u64),
        (ModelKind::Memnet, 0xfea8_2b40_66c7_93b3, 0xe418_66ac_b38e_b05b),
        (ModelKind::Speech, 0x5d52_1126_409b_7445, 0xb9f7_de82_0ad5_a0e2),
        (ModelKind::Autoenc, 0xf747_5c32_3ea3_1bc5, 0xc3fa_7c00_27b5_ac59),
        (ModelKind::Residual, 0xd5e3_32c1_3939_14d2, 0x5467_b0da_1d10_6495),
        (ModelKind::Vgg, 0x9448_6ad0_c688_1a6f, 0x5467_b0da_1d10_6495),
        (ModelKind::Alexnet, 0xabba_b1f3_c2c0_a868, 0xee09_5dfe_3b9b_afab),
        (ModelKind::Deepq, 0xe1ed_ec90_18d7_4a04, 0x5467_b0da_1d10_6495),
    ];
    let mut moved = Vec::new();
    for (kind, want_resume, want_metrics) in pinned {
        let mut model = kind.build(&BuildConfig::training().with_seed(7));
        for _ in 0..3 {
            model.step();
        }
        let cursor = TrainCursor { global_step: 3, epoch: 0, position: 3 };
        let mut bytes = Vec::new();
        checkpoint::save_resume(model.session(), cursor, &model.export_pipeline(), &mut bytes)
            .expect("saves");
        let resume = fnv1a(&bytes);

        let mut model = kind.build(&BuildConfig::inference().with_seed(7));
        let bits: Vec<u8> = (0..3)
            .flat_map(|_| model.step().metric.expect("inference reports a metric").to_bits().to_le_bytes())
            .collect();
        let metrics = fnv1a(&bits);
        if (resume, metrics) != (want_resume, want_metrics) {
            moved.push(format!(
                "{}: resume {resume:#018x} (pinned {want_resume:#018x}), metrics {metrics:#018x} (pinned {want_metrics:#018x})",
                kind.name()
            ));
        }
    }
    assert!(moved.is_empty(), "resume states or inference metrics changed bits:\n{}", moved.join("\n"));
}
