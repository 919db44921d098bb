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
//! Sixteen training runs take seconds in release and minutes in debug, so
//! the test runs in the release build only (tier-1's
//! `runtime-oversubscribed` stage).

use fathom_suite::fathom::{BuildConfig, ModelKind};
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
