//! Integration: the resilient training loop across crate boundaries —
//! `fathom::Trainer` driving real workloads with `fathom-dataflow`
//! fault plans, surfacing failures as `fathom_suite::FathomError`.
//!
//! Bitwise resume is the contract: a run that is killed, resumed from
//! disk and finished lands on the uninterrupted run's loss bits — after
//! a plain kill, after a guardrail trip, and after a kill, a trip and a
//! corrupted snapshot in one run. `fathom::train`'s unit tests hold the
//! single-fault cases (rotation, a torn newest generation, a corrupted
//! older one); deepq, whose resume state includes an environment and a
//! replay buffer, is among them.

use std::sync::Arc;

use fathom_suite::fathom::{
    BuildConfig, GuardrailPolicy, ModelKind, RetryPolicy, SnapshotPolicy, TrainOutcome, Trainer,
};
use fathom_suite::fathom_dataflow::{FaultAction, FaultPlan, FaultSite};
use fathom_suite::FathomError;

fn trainer(kind: ModelKind, seed: u64) -> Trainer {
    Trainer::new(kind.build(&BuildConfig::training().with_seed(seed))).expect("trainable")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("fathom-it-train-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_training_resumes_bitwise_across_the_suite_surface() {
    let seed = 0x5EED;
    let steps = 8;

    let mut clean = trainer(ModelKind::Memnet, seed);
    assert_eq!(clean.run(steps).expect("clean run"), TrainOutcome::Completed);
    let clean_bits = clean.report().final_loss.expect("loss").to_bits();

    // Same seed, snapshots on, killed mid-run by an injected crash.
    let dir = tmp_dir("memnet-kill");
    let snaps = SnapshotPolicy { every: 2, keep: 2 };
    let mut killed = trainer(ModelKind::Memnet, seed)
        .with_snapshots(snaps, &dir)
        .with_faults(Arc::new(
            FaultPlan::new(seed).with(FaultSite::TrainStep, 5, FaultAction::Crash),
        ));
    let outcome = killed.run(steps).expect("fault leg");
    assert_eq!(outcome, TrainOutcome::Killed { at_step: 5 });

    // A fresh process restores from disk and lands on the same bits.
    let mut resumed = trainer(ModelKind::Memnet, seed).with_snapshots(snaps, &dir);
    let at = resumed.resume(&dir).expect("resume");
    assert_eq!(at, 4, "newest generation before the kill at step 5");
    assert_eq!(resumed.run(steps).expect("resumed run"), TrainOutcome::Completed);
    assert_eq!(
        resumed.report().final_loss.expect("loss").to_bits(),
        clean_bits,
        "resumed training must be bitwise identical to the uninterrupted run"
    );
    assert_eq!(resumed.report().resumed_from, Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nan_and_a_corrupted_snapshot_in_one_run_still_resume_bitwise() {
    let seed = 7;
    let steps = 12;
    let guard = GuardrailPolicy { retry: RetryPolicy::Replay, ..Default::default() };

    let mut clean = trainer(ModelKind::Autoenc, seed).with_guardrail(guard);
    assert_eq!(clean.run(steps).expect("clean run"), TrainOutcome::Completed);
    let clean_bits = clean.report().final_loss.expect("loss").to_bits();

    // Every train-site hit is one step attempt. The NaN at hit 2 trips
    // the guardrail and the replay costs one extra attempt, so the crash
    // at hit 11 kills the loop after 10 committed steps. Snapshots land
    // at steps 3, 6 and 9; the third write (step 9, the newest before
    // the kill) is bit-flipped.
    let dir = tmp_dir("autoenc-soak");
    let snaps = SnapshotPolicy { every: 3, keep: 3 };
    let plan = FaultPlan::new(seed)
        .with(FaultSite::TrainStep, 2, FaultAction::PoisonNan)
        .with(FaultSite::TrainStep, 11, FaultAction::Crash)
        .with(FaultSite::CheckpointWrite, 2, FaultAction::BitFlips { flips: 16 });
    let mut faulty = trainer(ModelKind::Autoenc, seed)
        .with_guardrail(guard)
        .with_snapshots(snaps, &dir)
        .with_faults(Arc::new(plan));
    assert_eq!(faulty.run(steps).expect("fault leg"), TrainOutcome::Killed { at_step: 10 });
    assert_eq!(faulty.report().trips.len(), 1, "the injected NaN trips exactly once");
    assert_eq!(faulty.report().snapshots_written, 3);

    // Resume must fall back past the corrupted step-9 generation.
    let mut resumed = trainer(ModelKind::Autoenc, seed).with_guardrail(guard);
    assert_eq!(resumed.resume(&dir).expect("resume"), 6, "step 9's snapshot is corrupt");
    assert_eq!(resumed.run(steps).expect("resumed run"), TrainOutcome::Completed);
    assert_eq!(
        resumed.report().final_loss.expect("loss").to_bits(),
        clean_bits,
        "resumed training must land on the clean run's loss bits"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn guardrail_trip_recovers_bitwise_and_lands_in_the_report_json() {
    let seed = 0xD1CE;
    let steps = 6;

    let mut clean = trainer(ModelKind::Autoenc, seed);
    clean.run(steps).expect("clean run");
    let clean_bits = clean.report().final_loss.expect("loss").to_bits();

    // One poisoned loss: the guardrail trips, rolls the step back, and
    // the replay retry must reconverge onto the clean trajectory.
    let mut guarded = trainer(ModelKind::Autoenc, seed)
        .with_guardrail(GuardrailPolicy { retry: RetryPolicy::Replay, ..Default::default() })
        .with_faults(Arc::new(
            FaultPlan::new(seed).with(FaultSite::TrainStep, 3, FaultAction::PoisonNan),
        ));
    let outcome = guarded.run(steps).expect("guarded run");
    assert_eq!(outcome, TrainOutcome::Completed);
    let report = guarded.report();
    assert_eq!(report.trips.len(), 1, "exactly one trip");
    assert_eq!(report.trips[0].step, 3);
    assert_eq!(
        report.final_loss.expect("loss").to_bits(),
        clean_bits,
        "a rolled-back-and-replayed step must not fork the trajectory"
    );

    // Trips are first-class in the machine-readable report.
    let json = report.to_json(&outcome);
    assert!(json.contains("\"guardrail_trips\": 1"), "{json}");
    assert!(json.contains("\"action\": \"replay\""), "{json}");
}

#[test]
fn exhausted_retries_surface_as_a_typed_divergence() {
    // Every attempt (first try and all retries) is poisoned, so the
    // budget runs out and the typed error crosses the suite boundary.
    let seed = 7;
    let mut plan = FaultPlan::new(seed);
    for hit in 0..4 {
        plan = plan.with(FaultSite::TrainStep, hit, FaultAction::PoisonNan);
    }
    let mut doomed = trainer(ModelKind::Autoenc, seed)
        .with_guardrail(GuardrailPolicy {
            retry: RetryPolicy::Replay,
            max_retries: 2,
            ..Default::default()
        })
        .with_faults(Arc::new(plan));
    let err: FathomError = doomed.run(4).expect_err("must diverge").into();
    assert!(
        matches!(err, FathomError::Diverged { step: 0, retries: 2, .. }),
        "got {err:?}"
    );
    assert!(err.to_string().contains("diverged"), "{err}");
}
