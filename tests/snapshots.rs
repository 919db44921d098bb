//! Integration: the bytes a `Trainer` snapshot puts on disk are pinned.
//!
//! A snapshot is captured on the step thread and encoded on a background
//! writer, and `deepq`'s replay buffer is not encoded at all: it holds
//! each transition in its encoded form from the push on, and a snapshot
//! shares those bytes. None of that may move a byte: each generation
//! must hash exactly as the synchronous, whole-buffer writer it replaced
//! wrote it. The `deepq` leg runs through step 700, past the step-500
//! wrap of its 2000-transition ring, where pushes start overwriting
//! slots that earlier snapshots shared.
//!
//! The hashes were recorded on x86-64 Linux. The f32 kernels return the
//! same bits on every host (serial == parallel, AVX-512 == portable), so
//! a mismatch means the snapshot bytes changed.
//!
//! Seven hundred `deepq` steps take seconds in release and many minutes
//! in debug, so the test runs in the release build only (tier-1's
//! `runtime-oversubscribed` stage).

use fathom_suite::fathom::{BuildConfig, ModelKind, SnapshotPolicy, TrainOutcome, Trainer};

/// FNV-1a, 64-bit, over a whole snapshot file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Runs `kind` (seed 7) snapshotting every `every` steps and checks each
/// generation's hash against `pinned`, in step order.
fn assert_pinned(kind: ModelKind, every: u64, pinned: &[u64]) {
    let dir = std::env::temp_dir().join(format!("fathom-it-snapshots-{}-{}", kind.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut trainer = Trainer::new(kind.build(&BuildConfig::training().with_seed(7)))
        .expect("trainable")
        .with_snapshots(SnapshotPolicy { every, keep: 1 }, &dir);
    for (i, &want) in pinned.iter().enumerate() {
        let step = every * (i as u64 + 1);
        assert_eq!(trainer.run(step).expect("trains"), TrainOutcome::Completed);
        trainer.flush().expect("snapshot lands");
        let bytes = std::fs::read(dir.join(format!("step-{step:06}.ckpt"))).expect("generation on disk");
        assert_eq!(fnv1a(&bytes), want, "{} snapshot at step {step} changed bytes", kind.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "700 deepq steps: run with --release")]
fn deepq_snapshots_keep_their_bytes_through_the_replay_ring_wrap() {
    assert_pinned(
        ModelKind::Deepq,
        50,
        &[
            0x17d9_055e_0d53_f9fc,
            0xff17_d7a5_9def_4648,
            0xe313_98cf_0b02_f0a7,
            0x3666_3de9_f74e_b8b5,
            0x8b1a_b9db_5a84_8505,
            0x5c03_e2cb_4079_0a89,
            0x7c66_9748_3eeb_b5f0,
            0x20bc_4899_b011_9c9d,
            0x627d_83e2_a269_203d,
            0xe868_d195_d901_d998,
            0xd750_de68_a077_ceb0,
            0xeab4_46b7_e16a_5c63,
            0x2724_c08e_dee7_e9d9,
            0x5bb9_b316_fd23_c446,
        ],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100 autoenc steps: run with --release")]
fn autoenc_snapshots_keep_their_bytes() {
    assert_pinned(
        ModelKind::Autoenc,
        25,
        &[0x08df_2aa8_2386_6617, 0x8b70_f9e6_66fe_f8cc, 0xd0dc_b6bc_6142_0705, 0xe061_18da_a912_f233],
    );
}
