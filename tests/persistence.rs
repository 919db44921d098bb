//! Integration: checkpoints, exports, and full-scale graph construction
//! across real workloads.

use fathom_suite::fathom::{BuildConfig, ModelKind, ModelScale};
use fathom_suite::fathom_dataflow::checkpoint::{CheckpointError, TrainCursor};
use fathom_suite::fathom_dataflow::{checkpoint, export};

#[test]
fn autoenc_checkpoint_round_trips_through_the_workload_interface() {
    let cfg = BuildConfig::training().with_seed(7);
    let mut trained = ModelKind::Autoenc.build(&cfg);
    for _ in 0..5 {
        trained.step();
    }
    let mut buf = Vec::new();
    checkpoint::save(trained.session(), &mut buf).expect("saves");

    // A fresh instance restored from the checkpoint must produce the same
    // next loss as the trained one (identical variables, RNG reseeded, and
    // the data stream restarted from the same seed).
    let trained_loss = {
        let mut probe = ModelKind::Autoenc.build(&cfg);
        checkpoint::load(probe.session_mut(), buf.as_slice()).expect("loads");
        probe.step().loss.expect("training loss")
    };
    let fresh_loss = ModelKind::Autoenc
        .build(&cfg)
        .step()
        .loss
        .expect("training loss");
    assert_ne!(
        trained_loss, fresh_loss,
        "restored weights should differ from initialization"
    );
    assert!(trained_loss < fresh_loss, "training progress was not restored");
}

#[test]
fn checkpoints_do_not_cross_workloads() {
    let mut alexnet = ModelKind::Alexnet.build(&BuildConfig::training());
    alexnet.step();
    let mut buf = Vec::new();
    checkpoint::save(alexnet.session(), &mut buf).expect("saves");
    let mut vgg = ModelKind::Vgg.build(&BuildConfig::training());
    assert!(
        checkpoint::load(vgg.session_mut(), buf.as_slice()).is_err(),
        "an alexnet checkpoint must not load into vgg"
    );
}

#[test]
fn truncated_and_corrupt_checkpoints_are_rejected_loudly() {
    let mut model = ModelKind::Memnet.build(&BuildConfig::training());
    model.step();
    let mut buf = Vec::new();
    checkpoint::save(model.session(), &mut buf).expect("saves");

    // Truncation anywhere — inside the header, a record header, or a
    // record's data — must surface as BadHeader ("this is not a complete
    // checkpoint"), never as a raw I/O EOF.
    for keep in [4, 13, buf.len() / 3, buf.len() - 1] {
        let mut cut = buf.clone();
        cut.truncate(keep);
        let mut fresh = ModelKind::Memnet.build(&BuildConfig::training());
        let err = checkpoint::load(fresh.session_mut(), cut.as_slice()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::BadHeader(_)),
            "truncation at {keep}/{} bytes gave {err:?}",
            buf.len()
        );
    }

    // Corrupt magic bytes are a format error too.
    let mut garbled = buf.clone();
    garbled[0] ^= 0xFF;
    let mut fresh = ModelKind::Memnet.build(&BuildConfig::training());
    let err = checkpoint::load(fresh.session_mut(), garbled.as_slice()).unwrap_err();
    assert!(matches!(err, CheckpointError::BadHeader(_)), "got {err:?}");
}

#[test]
fn fuzzed_corruption_always_yields_a_typed_error_and_never_panics() {
    use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan};

    let cfg = BuildConfig::training().with_seed(11);
    let mut model = ModelKind::Autoenc.build(&cfg);
    model.step();
    let mut buf = Vec::new();
    checkpoint::save(model.session(), &mut buf).expect("saves");
    checkpoint::verify(buf.as_slice()).expect("the pristine checkpoint verifies");

    // One victim session reused across rounds: `load` stages the whole
    // payload before touching any variable, so a failed load must leave
    // the session loadable for the next round.
    let mut victim = ModelKind::Autoenc.build(&cfg);
    for round in 0..48u64 {
        let plan = FaultPlan::new(0xF0_22 + round);
        let action = if round % 3 == 0 {
            FaultAction::Truncate { keep: (round as usize * 977) % buf.len() }
        } else {
            FaultAction::BitFlips { flips: 1 + (round as usize % 7) }
        };
        let mut mangled = buf.clone();
        plan.corrupt(&mut mangled, &action);
        if mangled == buf {
            continue; // an even number of flips on one bit can cancel out
        }

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checkpoint::load(victim.session_mut(), mangled.as_slice())
        }));
        let result = outcome.unwrap_or_else(|_| {
            panic!("load panicked on corrupted bytes (round {round}, {action:?})")
        });
        let err = result.expect_err("corrupted bytes must not load");
        // A flip landing in the version or flags word reads as a file
        // from a newer writer (UnsupportedVersion); anywhere else it is
        // a format or checksum failure.
        assert!(
            matches!(
                err,
                CheckpointError::BadHeader(_)
                    | CheckpointError::Corrupt(_)
                    | CheckpointError::UnsupportedVersion(_)
            ),
            "round {round} ({action:?}) gave unexpected error {err:?}"
        );
        assert!(
            checkpoint::verify(mangled.as_slice()).is_err(),
            "verify must agree with load (round {round}, {action:?})"
        );
    }

    // The victim took no damage from any of the failed loads.
    checkpoint::load(victim.session_mut(), buf.as_slice())
        .expect("the pristine checkpoint still loads after 48 failed attempts");
}

#[test]
fn fuzzed_flag_words_are_typed_unsupported_or_rejected_and_never_panic() {
    // Exhaustively sweep the low flag byte plus a sample of high words:
    // every flags value must either load (bits we understand, and then
    // only if the sections really follow) or fail with a typed error —
    // unknown bits specifically as UnsupportedVersion, so callers can
    // tell "written by a newer build" apart from damage.
    let cfg = BuildConfig::training().with_seed(13);
    let mut model = ModelKind::Autoenc.build(&cfg);
    model.step();
    let mut buf = Vec::new();
    checkpoint::save(model.session(), &mut buf).expect("saves");
    let original = u32::from_le_bytes(buf[12..16].try_into().unwrap());

    let mut victim = ModelKind::Autoenc.build(&cfg);
    let mut flag_words: Vec<u32> = (0..=0xFFu32).collect();
    flag_words.extend([0x100, 0x8000, 0x0001_0000, 0x00FF_0000, 0x8000_0001, u32::MAX]);
    for flags in flag_words {
        let mut mangled = buf.clone();
        mangled[12..16].copy_from_slice(&flags.to_le_bytes());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checkpoint::load(victim.session_mut(), mangled.as_slice())
        }));
        let result = outcome
            .unwrap_or_else(|_| panic!("load panicked on flags word {flags:#010x}"));
        if flags == original {
            result.expect("the original flags word still loads");
            continue;
        }
        let err = result.expect_err("an altered flags word must not checksum");
        // Bits beyond VARS|RESUME (0b11), the retired calibration bit
        // 0x4 included, announce sections this build cannot parse: typed
        // as UnsupportedVersion before any payload is read. Known-bit
        // combinations fail later — missing variables section, an
        // unparsable phantom section, or checksum.
        if flags & !0b11 != 0 {
            assert!(
                matches!(err, CheckpointError::UnsupportedVersion(_)),
                "flags {flags:#010x} gave {err:?}"
            );
        } else {
            assert!(
                matches!(err, CheckpointError::BadHeader(_) | CheckpointError::Corrupt(_)),
                "flags {flags:#010x} gave {err:?}"
            );
        }
    }

    checkpoint::load(victim.session_mut(), buf.as_slice())
        .expect("the pristine checkpoint still loads after the flag sweep");
}

#[test]
fn resume_checkpoints_round_trip_byte_identically() {
    // The full-fidelity property behind deterministic resume: for every
    // workload, each at a seed of its own, save -> load -> save must
    // emit the exact same bytes. Any drift (a lossy pipeline codec, an
    // unordered optimizer-slot walk, an RNG word dropped) shows up here
    // as a byte-level diff before it ever becomes a subtle training fork.
    for (kind, seed) in ModelKind::ALL.into_iter().zip((3u64..).step_by(6)) {
        let cfg = BuildConfig::training().with_seed(seed);
        let mut model = kind.build(&cfg);
        for _ in 0..3 {
            model.step();
        }
        let cursor = TrainCursor { global_step: 3, epoch: 0, position: 3 };
        let mut first = Vec::new();
        checkpoint::save_resume(model.session(), cursor, &model.export_pipeline(), &mut first)
            .expect("saves");

        let mut restored = kind.build(&cfg);
        let header =
            checkpoint::load_resume(restored.session_mut(), first.as_slice()).expect("loads");
        assert_eq!(header.cursor, cursor, "{}", kind.name());
        restored.import_pipeline(&header.pipeline).expect("pipeline imports");

        let mut second = Vec::new();
        checkpoint::save_resume(
            restored.session(),
            header.cursor,
            &restored.export_pipeline(),
            &mut second,
        )
        .expect("saves again");
        assert_eq!(
            first,
            second,
            "{}: resume save->load->save must be byte-identical",
            kind.name()
        );
    }
}

#[test]
fn resume_truncation_at_every_boundary_is_typed_never_a_panic() {
    let cfg = BuildConfig::training().with_seed(5);
    let mut model = ModelKind::Memnet.build(&cfg);
    model.step();
    let cursor = TrainCursor { global_step: 1, epoch: 0, position: 1 };
    let mut buf = Vec::new();
    checkpoint::save_resume(model.session(), cursor, &model.export_pipeline(), &mut buf)
        .expect("saves");

    // Every length boundary in the structured head and tail (headers,
    // flags, digest, the resume section) plus a stride through the bulk
    // tensor bytes in between: each cut must yield a typed error, never
    // a panic. The victim session is reused across every failed load to
    // prove failed loads are side-effect free.
    let mut victim = ModelKind::Memnet.build(&cfg);
    let len = buf.len();
    let mut boundaries: Vec<usize> = (0..len.min(512)).collect();
    boundaries.extend((len.saturating_sub(512)..len).filter(|&k| k >= 512));
    boundaries.extend((512..len.saturating_sub(512)).step_by(97));
    for keep in boundaries {
        let cut = &buf[..keep];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checkpoint::load_resume(victim.session_mut(), cut)
        }));
        let result = outcome
            .unwrap_or_else(|_| panic!("load_resume panicked at boundary {keep}/{len}"));
        let err = result.expect_err("a truncated resume checkpoint must not load");
        assert!(
            matches!(
                err,
                CheckpointError::BadHeader(_)
                    | CheckpointError::Corrupt(_)
                    | CheckpointError::UnsupportedVersion(_)
            ),
            "boundary {keep}/{len} gave unexpected error {err:?}"
        );
    }

    // Sampled bitflips across the resume format get the same guarantee.
    use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan};
    for round in 0..24u64 {
        let mut mangled = buf.clone();
        FaultPlan::new(0x2E50E + round)
            .corrupt(&mut mangled, &FaultAction::BitFlips { flips: 1 + (round as usize % 5) });
        if mangled == buf {
            continue;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checkpoint::load_resume(victim.session_mut(), mangled.as_slice())
        }));
        let result =
            outcome.unwrap_or_else(|_| panic!("load_resume panicked on bitflips (round {round})"));
        assert!(result.is_err(), "round {round}: corrupted resume bytes must not load");
    }

    checkpoint::load_resume(victim.session_mut(), buf.as_slice())
        .expect("the pristine resume checkpoint still loads after every failed attempt");
}

#[test]
fn resume_checkpoints_do_not_cross_optimizers() {
    use fathom_suite::fathom_dataflow::{Device, Graph, Optimizer, Session};
    use fathom_suite::fathom_tensor::{Shape, Tensor};

    // Two sessions over the same variables, differing only in the
    // optimizer: their `Apply` nodes sit at the same indices, so only the
    // slot names tell a Momentum checkpoint from an Adam one.
    let session = |opt: Optimizer| {
        let mut g = Graph::new();
        let x = g.placeholder("x", Shape::matrix(4, 3));
        let w = g.variable("w", Tensor::filled([3, 2], 0.5));
        let y = g.matmul(x, w);
        let loss = g.mean_all(y);
        let train = opt.minimize_all(&mut g, loss);
        (Session::new(g, Device::cpu(1)), train, x)
    };
    let (mut momentum, train, x) = session(Optimizer::momentum(0.1));
    momentum.run(&[train], &[(x, Tensor::filled([4, 3], 1.0))]).expect("steps");
    let cursor = TrainCursor { global_step: 1, epoch: 0, position: 1 };
    let mut buf = Vec::new();
    checkpoint::save_resume(&momentum, cursor, &[], &mut buf).expect("saves");

    let (mut twin, _, _) = session(Optimizer::momentum(0.1));
    checkpoint::load_resume(&mut twin, buf.as_slice()).expect("a Momentum session resumes it");
    let (mut adam, _, _) = session(Optimizer::adam(0.1));
    let err = checkpoint::load_resume(&mut adam, buf.as_slice()).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err:?}");
}

#[test]
fn every_workload_exports_dot_and_chrome_trace() {
    for kind in [ModelKind::Autoenc, ModelKind::Memnet, ModelKind::Deepq] {
        let mut model = kind.build(&BuildConfig::training());
        let dot = export::to_dot(model.session().graph());
        assert!(dot.starts_with("digraph fathom"));
        assert!(dot.len() > 1000, "{kind}: suspiciously small graph export");

        model.session_mut().enable_tracing();
        model.step();
        let trace = model.session_mut().take_trace();
        let json = export::to_chrome_trace(&trace);
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

#[test]
#[ignore = "allocates full-scale parameters; run with --release -- --ignored"]
fn full_scale_graphs_construct_with_paper_dimensions() {
    // Building (not stepping) the Full-scale graphs checks that the
    // paper-true dimension tables are internally consistent.
    for kind in [ModelKind::Alexnet, ModelKind::Residual, ModelKind::Deepq, ModelKind::Autoenc] {
        let cfg = BuildConfig::training().with_scale(ModelScale::Full);
        let model = kind.build(&cfg);
        let params: usize = model
            .session()
            .graph()
            .variables()
            .iter()
            .map(|&v| model.session().graph().shape(v).num_elements())
            .sum();
        // Sanity bands for the famous parameter counts.
        match kind {
            ModelKind::Alexnet => assert!((50e6..80e6).contains(&(params as f64)), "alexnet {params}"),
            ModelKind::Residual => assert!((15e6..30e6).contains(&(params as f64)), "residual {params}"),
            _ => assert!(params > 100_000, "{kind}: only {params} params"),
        }
    }
}
