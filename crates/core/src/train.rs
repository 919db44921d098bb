//! Resilient long-run training: snapshot cadence, divergence
//! guardrails, and deterministic mid-run resume.
//!
//! The paper's workloads are measured over long training runs, and long
//! runs die: machines reboot, loss curves explode, checkpoint writes get
//! torn mid-stream. [`Trainer`] wraps any training-mode [`Workload`]
//! with the three defenses a production loop carries:
//!
//! * **Snapshot cadence** ([`SnapshotPolicy`]): every N optimizer steps
//!   a resume checkpoint — variables, optimizer slots, RNG streams, and
//!   the workload's pipeline blob — is promoted crash-consistently into
//!   a rotation of the K newest files. The step thread only captures
//!   the state ([`ResumeImage::capture`]); one background writer
//!   encodes, writes, fsyncs and renames it, with at most one snapshot
//!   in flight. A snapshot is on disk once the next one is handed off,
//!   [`Trainer::flush`] or [`Trainer::resume`] returns, [`Trainer::run`]
//!   returns `Killed` or an error, or the trainer drops.
//! * **Divergence guardrails** ([`GuardrailPolicy`]): the per-step loss
//!   and global gradient norm are watched for NaN/Inf/explosion; a trip
//!   rolls the step back transactionally inside the session and the
//!   trainer retries under a bounded [`RetryPolicy`], surfacing
//!   [`TrainError::Diverged`] when the budget runs out.
//! * **Deterministic resume** ([`Trainer::resume`]): the newest loadable
//!   snapshot restores the run *bitwise* — every subsequent step
//!   produces the same loss bits as the uninterrupted run — falling back
//!   to older generations when the newest is torn or corrupt.
//!
//! Fault injection reuses the suite-wide [`FaultPlan`]: `train@K=crash`
//! kills the loop between steps, `train@K=nan` poisons one loss fetch,
//! and `ckpt-write` faults corrupt snapshot bytes on their way to disk.

use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fathom_dataflow::checkpoint::{self, CheckpointError, ResumeImage, TrainCursor};
use fathom_dataflow::{ExecError, FaultAction, FaultPlan, FaultSite, Guardrail, Json, RuntimeCounters};

use crate::workload::Workload;

/// How often snapshots are taken and how many generations survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Take a snapshot every this many optimizer steps (0 disables).
    pub every: u64,
    /// Newest generations kept on disk; older files are pruned.
    pub keep: usize,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy { every: 10, keep: 3 }
    }
}

/// What the trainer does after a guardrail trip, before retrying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryPolicy {
    /// Retry the identical step. The session and data pipeline were
    /// rolled back transactionally, so this replays the same batch —
    /// the right answer for transient injected faults.
    Replay,
    /// Advance the data pipeline past the offending batch first.
    SkipBatch,
    /// Multiply every optimizer learning rate by `factor` first.
    LrBackoff {
        /// Multiplier applied to each `Apply` op's learning rate.
        factor: f32,
    },
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryPolicy::Replay => write!(f, "replay"),
            RetryPolicy::SkipBatch => write!(f, "skip-batch"),
            RetryPolicy::LrBackoff { factor } => write!(f, "lr-backoff:{factor}"),
        }
    }
}

/// Divergence limits and the bounded retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardrailPolicy {
    /// Trip when `|loss|` exceeds this (NaN/Inf always trip).
    pub max_abs_loss: f32,
    /// Trip when the global gradient norm exceeds this.
    pub max_grad_norm: f32,
    /// Recovery action between retries.
    pub retry: RetryPolicy,
    /// Trips tolerated per step before declaring divergence.
    pub max_retries: u32,
}

impl Default for GuardrailPolicy {
    fn default() -> Self {
        GuardrailPolicy {
            max_abs_loss: 1e4,
            max_grad_norm: 1e6,
            retry: RetryPolicy::Replay,
            max_retries: 3,
        }
    }
}

/// One guardrail trip and how it resolved, for the run report.
#[derive(Debug, Clone)]
pub struct TripEvent {
    /// Global step the trip happened on.
    pub step: u64,
    /// The guardrail's reason string.
    pub reason: String,
    /// Which retry attempt this was (1 = first retry).
    pub attempt: u32,
    /// The policy applied before retrying.
    pub action: RetryPolicy,
}

/// How a [`Trainer::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainOutcome {
    /// All requested steps ran.
    Completed,
    /// An injected `train@K=crash` fault killed the loop after this many
    /// completed steps (the process would be dead; the caller resumes).
    Killed {
        /// Global step count at death.
        at_step: u64,
    },
}

/// Everything a resilient run wants to tell the caller, JSON-able for
/// the CLI and the soak gate.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Workload name.
    pub workload: &'static str,
    /// Optimizer steps completed across the run (including pre-resume).
    pub steps: u64,
    /// Step the run resumed from, if it resumed.
    pub resumed_from: Option<u64>,
    /// Loss of the last completed step.
    pub final_loss: Option<f32>,
    /// Gradient norm of the last completed step.
    pub final_grad_norm: Option<f32>,
    /// Guardrail trips, in order.
    pub trips: Vec<TripEvent>,
    /// Snapshots promoted to disk (counted when their write is joined).
    pub snapshots_written: u64,
    /// Wall nanoseconds the step thread spent on snapshots: capturing
    /// the state and waiting for the previous write, not the background
    /// write itself.
    pub snapshot_nanos: u128,
    /// Wall nanoseconds spent inside workload steps.
    pub step_nanos: u128,
    /// Unified-runtime counters for the training session, sampled when
    /// the run ends.
    pub runtime: RuntimeCounters,
}

impl TrainReport {
    /// The report as a JSON document, through `fathom_dataflow::json`:
    /// an absent or non-finite loss is `null` (a diverged run's report
    /// must still parse), and the `runtime` block appears only when the
    /// unified runtime recorded something.
    pub fn to_json(&self, outcome: &TrainOutcome) -> String {
        let outcome = match outcome {
            TrainOutcome::Completed => "completed".to_string(),
            TrainOutcome::Killed { at_step } => format!("killed@{at_step}"),
        };
        let trips = self.trips.iter().map(|t| {
            Json::obj()
                .with("step", t.step)
                .with("attempt", u64::from(t.attempt))
                .with("action", t.action.to_string().as_str())
                .with("reason", t.reason.as_str())
        });
        Json::obj()
            .with("workload", self.workload)
            .with("outcome", outcome.as_str())
            .with("steps", self.steps)
            .with("resumed_from", self.resumed_from)
            .with("final_loss", self.final_loss)
            .with("final_grad_norm", self.final_grad_norm)
            .with("guardrail_trips", self.trips.len())
            .with("trips", Json::arr(trips))
            .with("snapshots_written", self.snapshots_written)
            .with("snapshot_nanos", self.snapshot_nanos)
            .with_nondefault("runtime", self.runtime)
            .with("step_nanos", self.step_nanos)
            .render()
    }
}

/// A failure of the resilient training loop.
#[derive(Debug)]
pub enum TrainError {
    /// The guardrail kept tripping past the retry budget.
    Diverged {
        /// Global step that could not complete.
        step: u64,
        /// Retries spent before giving up.
        retries: u32,
        /// The last trip's reason.
        reason: String,
    },
    /// A step failed for a non-guardrail reason.
    Exec(ExecError),
    /// A snapshot could not be written, or no resume generation loaded.
    Checkpoint(CheckpointError),
    /// The workload rejected its pipeline blob on import.
    Pipeline(String),
    /// The workload was built without a training graph, or exposes no
    /// loss/grad-norm probes to guard.
    NotTrainable(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged { step, retries, reason } => write!(
                f,
                "training diverged at step {step} after {retries} retries: {reason}"
            ),
            TrainError::Exec(e) => write!(f, "{e}"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::Pipeline(msg) => write!(f, "pipeline restore failed: {msg}"),
            TrainError::NotTrainable(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<ExecError> for TrainError {
    fn from(e: ExecError) -> Self {
        TrainError::Exec(e)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// How one guarded step attempt ended (internal to the run loop).
enum StepEnd {
    /// The step committed.
    Done,
    /// An injected `train@K=crash` fault fired; the loop dies here.
    Killed,
}

/// Nominal batches per epoch for cursor bookkeeping. The synthetic
/// corpora are infinite streams, so the epoch is a fixed accounting
/// window rather than a dataset size.
const EPOCH_LEN: u64 = 64;

/// Drives a training-mode [`Workload`] with snapshots, guardrails, and
/// resume. See the module docs for the full contract.
pub struct Trainer {
    model: Box<dyn Workload>,
    snapshot: SnapshotPolicy,
    guard: Option<GuardrailPolicy>,
    fault: Option<Arc<FaultPlan>>,
    dir: Option<PathBuf>,
    global_step: u64,
    report: TrainReport,
    /// The snapshot write in flight, if any: at most one.
    writer: Option<JoinHandle<Result<(), CheckpointError>>>,
}

impl Trainer {
    /// Wraps a workload. Fails fast when the workload carries no
    /// training graph (no loss/grad-norm probes to drive or guard).
    pub fn new(model: Box<dyn Workload>) -> Result<Self, TrainError> {
        if model.train_probes().is_none() {
            return Err(TrainError::NotTrainable(format!(
                "workload '{}' was built without a training graph; \
                 build it in training mode to use the trainer",
                model.name()
            )));
        }
        let workload = model.name();
        Ok(Trainer {
            model,
            snapshot: SnapshotPolicy::default(),
            guard: None,
            fault: None,
            dir: None,
            global_step: 0,
            report: TrainReport { workload, ..TrainReport::default() },
            writer: None,
        })
    }

    /// Sets the snapshot cadence and rotation depth.
    pub fn with_snapshots(mut self, policy: SnapshotPolicy, dir: impl Into<PathBuf>) -> Self {
        self.snapshot = policy;
        self.dir = Some(dir.into());
        self
    }

    /// Arms the divergence guardrail: non-finite fetches or variable
    /// updates, `|loss|` past `max_abs_loss`, or a gradient norm past
    /// `max_grad_norm` all trip and roll the step back.
    pub fn with_guardrail(mut self, policy: GuardrailPolicy) -> Self {
        let probes = self.model.train_probes().expect("checked in new()");
        let rail = Guardrail::finite()
            .with_limit(probes.loss, policy.max_abs_loss)
            .with_limit(probes.grad_norm, policy.max_grad_norm);
        self.model.session_mut().set_guardrail(Some(rail));
        self.guard = Some(policy);
        self
    }

    /// Arms a fault plan: `train` sites fire here, and `ckpt-write`
    /// faults corrupt snapshot bytes on their way to disk.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The wrapped workload.
    pub fn model(&self) -> &dyn Workload {
        &*self.model
    }

    /// Mutable access to the wrapped workload (tests, probes).
    pub fn model_mut(&mut self) -> &mut dyn Workload {
        &mut *self.model
    }

    /// Completed optimizer steps, across resume boundaries.
    pub fn global_step(&self) -> u64 {
        self.global_step
    }

    /// The run report accumulated so far.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    fn cursor(&self) -> TrainCursor {
        TrainCursor {
            global_step: self.global_step,
            epoch: self.global_step / EPOCH_LEN,
            position: self.global_step % EPOCH_LEN,
        }
    }

    fn snapshot_path(dir: &Path, step: u64) -> PathBuf {
        dir.join(format!("step-{step:06}.ckpt"))
    }

    /// Snapshot files in `dir`, newest (highest step) first.
    fn generations(dir: &Path) -> Vec<(u64, PathBuf)> {
        let mut found = Vec::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return found;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(step) = name
                .strip_prefix("step-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                found.push((step, entry.path()));
            }
        }
        found.sort_by_key(|&(step, _)| std::cmp::Reverse(step));
        found
    }

    /// Hands one snapshot to the background writer: waits for the
    /// previous write, makes sure the directory exists, captures the
    /// state, draws the `ckpt-write` fault here (so fault hit counts
    /// follow the step sequence), and spawns the write.
    fn write_snapshot(&mut self) -> Result<(), TrainError> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        let began = Instant::now();
        self.flush()?;
        std::fs::create_dir_all(&dir).map_err(CheckpointError::from)?;
        let image =
            ResumeImage::capture(self.model.session(), self.cursor(), self.model.pipeline_parts());
        let fault = self.fault.as_ref().and_then(|plan| {
            plan.check(FaultSite::CheckpointWrite).map(|action| (Arc::clone(plan), action))
        });
        let path = Self::snapshot_path(&dir, self.global_step);
        let keep = self.snapshot.keep;
        let writer = std::thread::Builder::new()
            .name("fathom-snapshot".into())
            .spawn(move || write_generation(&image, fault, &dir, &path, keep))
            .map_err(CheckpointError::from)?;
        self.writer = Some(writer);
        self.report.snapshot_nanos += began.elapsed().as_nanos();
        Ok(())
    }

    /// Waits for the snapshot write in flight, if any, and surfaces its
    /// error. Afterwards every snapshot handed off so far is on disk.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] when the write failed (or its thread
    /// panicked, reported as an I/O error).
    pub fn flush(&mut self) -> Result<(), TrainError> {
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        writer
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("snapshot writer panicked").into()))?;
        self.report.snapshots_written += 1;
        Ok(())
    }

    /// Restores the newest loadable snapshot in `dir`, falling back to
    /// older generations when the newest is torn or corrupt. Returns
    /// the global step the run resumed at.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] when no generation loads (the last
    /// generation's typed error), [`TrainError::Pipeline`] when the
    /// workload rejects its own pipeline blob.
    pub fn resume(&mut self, dir: impl AsRef<Path>) -> Result<u64, TrainError> {
        self.flush()?;
        let dir = dir.as_ref();
        let generations = Self::generations(dir);
        if generations.is_empty() {
            return Err(TrainError::Checkpoint(CheckpointError::BadHeader(format!(
                "no step-*.ckpt snapshots in {}",
                dir.display()
            ))));
        }
        let mut last_err = None;
        for (step, path) in &generations {
            match checkpoint::load_resume_from_path(self.model.session_mut(), path) {
                Ok(header) => {
                    self.model
                        .import_pipeline(&header.pipeline)
                        .map_err(TrainError::Pipeline)?;
                    self.global_step = header.cursor.global_step;
                    debug_assert_eq!(header.cursor.global_step, *step);
                    self.report.resumed_from = Some(self.global_step);
                    self.report.steps = self.global_step;
                    return Ok(self.global_step);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(TrainError::Checkpoint(last_err.expect("generations is non-empty")))
    }

    /// One guarded optimizer step, retrying under the guardrail policy.
    /// Every attempt (first try and each retry) counts as one pass of
    /// the `train` fault site, so persistent fault schedules can defeat
    /// replay retries and exercise the divergence path.
    fn guarded_step(&mut self) -> Result<StepEnd, TrainError> {
        let budget = self.guard.map(|p| p.max_retries).unwrap_or(0);
        let mut attempt = 0u32;
        loop {
            if let Some(plan) = &self.fault {
                match plan.check(FaultSite::TrainStep) {
                    Some(FaultAction::Crash) => return Ok(StepEnd::Killed),
                    Some(FaultAction::PoisonNan) => {
                        let probes = self.model.train_probes().expect("checked in new()");
                        self.model.session_mut().poison_next_fetch(probes.loss);
                    }
                    Some(FaultAction::Panic) => panic!("injected fault: train step panic"),
                    _ => {}
                }
            }
            let began = Instant::now();
            match self.model.try_step() {
                Ok(stats) => {
                    self.report.step_nanos += began.elapsed().as_nanos();
                    self.report.final_loss = stats.loss;
                    self.report.final_grad_norm = stats.grad_norm;
                    return Ok(StepEnd::Done);
                }
                Err(ExecError::GuardTripped(reason)) => {
                    self.report.step_nanos += began.elapsed().as_nanos();
                    attempt += 1;
                    if attempt > budget {
                        return Err(TrainError::Diverged {
                            step: self.global_step,
                            retries: budget,
                            reason,
                        });
                    }
                    let policy = self.guard.expect("trips imply an armed guardrail");
                    match policy.retry {
                        RetryPolicy::Replay => {}
                        RetryPolicy::SkipBatch => self.model.skip_batch(),
                        RetryPolicy::LrBackoff { factor } => {
                            self.model.session_mut().scale_learning_rates(factor);
                        }
                    }
                    self.report.trips.push(TripEvent {
                        step: self.global_step,
                        reason,
                        attempt,
                        action: policy.retry,
                    });
                }
                Err(other) => return Err(TrainError::Exec(other)),
            }
        }
    }

    /// Runs until `target_steps` total optimizer steps have completed
    /// (counting steps restored by [`Trainer::resume`]), snapshotting on
    /// cadence and recovering from guardrail trips. A completed run may
    /// leave its last snapshot in flight ([`Trainer::flush`] waits for
    /// it); a killed or failed run waits for it before returning.
    ///
    /// # Errors
    ///
    /// [`TrainError::Diverged`] when a step exhausts its retry budget,
    /// or the underlying exec/checkpoint failure. When a step fails and
    /// the write in flight fails too, the step's error is the one
    /// returned.
    pub fn run(&mut self, target_steps: u64) -> Result<TrainOutcome, TrainError> {
        match self.run_steps(target_steps) {
            Ok(TrainOutcome::Completed) => Ok(TrainOutcome::Completed),
            Ok(killed) => self.flush().map(|()| killed),
            Err(e) => {
                let _ = self.flush();
                Err(e)
            }
        }
    }

    fn run_steps(&mut self, target_steps: u64) -> Result<TrainOutcome, TrainError> {
        while self.global_step < target_steps {
            if let StepEnd::Killed = self.guarded_step()? {
                self.report.runtime = self.model.session().runtime_counters();
                return Ok(TrainOutcome::Killed { at_step: self.global_step });
            }
            self.global_step += 1;
            self.report.steps = self.global_step;
            if self.snapshot.every > 0 && self.global_step.is_multiple_of(self.snapshot.every) {
                self.write_snapshot()?;
            }
        }
        self.report.runtime = self.model.session().runtime_counters();
        Ok(TrainOutcome::Completed)
    }
}

impl Drop for Trainer {
    /// Lands the write in flight; its error, if any, is dropped with the
    /// trainer ([`Trainer::flush`] is the way to see it).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// The background half of a snapshot, into an existing `dir`: encodes
/// the captured image, applies an injected `ckpt-write` corruption,
/// writes `<path>.tmp`,
/// fsyncs it, renames it over `path`, fsyncs the directory, and prunes
/// generations past the newest `keep`. There is no re-verification:
/// injected corruption must be allowed to land so resume's generation
/// fallback gets exercised.
fn write_generation(
    image: &ResumeImage,
    fault: Option<(Arc<FaultPlan>, FaultAction)>,
    dir: &Path,
    path: &Path,
    keep: usize,
) -> Result<(), CheckpointError> {
    let mut bytes = Vec::new();
    image.write(&mut bytes)?;
    if let Some((plan, action)) = fault {
        plan.corrupt(&mut bytes, &action);
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    checkpoint::sync_dir(dir);
    let mut generations = Trainer::generations(dir);
    let keep = keep.clamp(1, generations.len().max(1));
    if generations.len() > keep {
        for (_, old) in generations.split_off(keep) {
            let _ = std::fs::remove_file(old);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelKind;
    use crate::workload::BuildConfig;

    fn autoenc_trainer(seed: u64) -> Trainer {
        let cfg = BuildConfig { seed, ..BuildConfig::training() };
        Trainer::new(ModelKind::Autoenc.build(&cfg)).expect("training mode")
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fathom-train-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn inference_workloads_are_rejected() {
        let err = match Trainer::new(ModelKind::Autoenc.build(&BuildConfig::inference())) {
            Ok(_) => panic!("inference workload must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, TrainError::NotTrainable(_)), "got {err:?}");
    }

    #[test]
    fn kill_and_resume_is_bitwise_identical() {
        let dir = tmp_dir("resume");
        // Clean leg: 9 uninterrupted steps.
        let mut clean = autoenc_trainer(11);
        assert_eq!(clean.run(9).unwrap(), TrainOutcome::Completed);
        let clean_loss = clean.report().final_loss.unwrap();

        // Fault leg: killed at step 7, after the cadence-4 snapshot at 4.
        let mut killed = autoenc_trainer(11)
            .with_snapshots(SnapshotPolicy { every: 4, keep: 2 }, &dir)
            .with_faults(Arc::new(
                FaultPlan::new(0).with(FaultSite::TrainStep, 7, FaultAction::Crash),
            ));
        assert_eq!(killed.run(9).unwrap(), TrainOutcome::Killed { at_step: 7 });
        drop(killed);

        // Resume leg: a fresh process picks up at step 4 (the newest
        // snapshot) and must land on the clean leg's exact loss bits.
        let mut resumed = autoenc_trainer(11);
        let at = resumed.resume(&dir).unwrap();
        assert_eq!(at, 4);
        assert_eq!(resumed.run(9).unwrap(), TrainOutcome::Completed);
        let resumed_loss = resumed.report().final_loss.unwrap();
        assert_eq!(
            clean_loss.to_bits(),
            resumed_loss.to_bits(),
            "resume diverged: clean {clean_loss} vs resumed {resumed_loss}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_only_the_newest_generations() {
        let dir = tmp_dir("rotate");
        let mut t = autoenc_trainer(3).with_snapshots(SnapshotPolicy { every: 2, keep: 2 }, &dir);
        t.run(8).unwrap();
        t.flush().unwrap();
        let gens = Trainer::generations(&dir);
        let steps: Vec<u64> = gens.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![8, 6], "rotation kept {steps:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_nan_trips_and_replay_recovers() {
        let mut t = autoenc_trainer(5)
            .with_guardrail(GuardrailPolicy::default())
            .with_faults(Arc::new(
                FaultPlan::new(0).with(FaultSite::TrainStep, 2, FaultAction::PoisonNan),
            ));
        assert_eq!(t.run(5).unwrap(), TrainOutcome::Completed);
        assert_eq!(t.report().trips.len(), 1, "exactly one trip expected");
        assert_eq!(t.report().trips[0].step, 2);
        assert!(t.report().final_loss.unwrap().is_finite());
        // The recovered run matches a clean run bitwise: the tripped
        // step was rolled back and replayed without the poison.
        let mut clean = autoenc_trainer(5);
        clean.run(5).unwrap();
        assert_eq!(
            clean.report().final_loss.unwrap().to_bits(),
            t.report().final_loss.unwrap().to_bits()
        );
    }

    #[test]
    fn unrecoverable_divergence_is_typed() {
        // Poison every step: replay cannot outlast a persistent NaN
        // source, so the retry budget must exhaust into Diverged.
        let plan = FaultPlan::new(0)
            .with(FaultSite::TrainStep, 0, FaultAction::PoisonNan)
            .with(FaultSite::TrainStep, 1, FaultAction::PoisonNan)
            .with(FaultSite::TrainStep, 2, FaultAction::PoisonNan)
            .with(FaultSite::TrainStep, 3, FaultAction::PoisonNan);
        let mut t = autoenc_trainer(7)
            .with_guardrail(GuardrailPolicy {
                max_retries: 2,
                ..GuardrailPolicy::default()
            })
            .with_faults(Arc::new(plan));
        // Each retry attempt probes the next train hit, so hits 0..=2
        // re-poison every attempt of step 0 until the budget exhausts.
        let err = t.run(4).unwrap_err();
        match err {
            TrainError::Diverged { step: 0, retries: 2, .. } => {}
            other => panic!("expected Diverged at step 0, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let mut t = autoenc_trainer(13).with_snapshots(SnapshotPolicy { every: 2, keep: 3 }, &dir);
        t.run(6).unwrap();
        t.flush().unwrap();
        // Tear the newest snapshot the way a dying writer would.
        let newest = Trainer::generations(&dir)[0].1.clone();
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let mut resumed = autoenc_trainer(13);
        let at = resumed.resume(&dir).unwrap();
        assert_eq!(at, 4, "should fall back past the torn step-6 snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_report_round_trips_as_json() {
        let mut t = autoenc_trainer(1).with_guardrail(GuardrailPolicy::default());
        let outcome = t.run(2).unwrap();
        let json = t.report().to_json(&outcome);
        assert!(json.contains("\"workload\": \"autoenc\""));
        assert!(json.contains("\"outcome\": \"completed\""));
        assert!(json.contains("\"steps\": 2"));
        assert!(json.contains("\"guardrail_trips\": 0"));
        assert!(json.contains("\"final_grad_norm\""));
    }

    #[test]
    fn report_json_is_pinned() {
        let runtime = RuntimeCounters {
            allocations: 3,
            arena_bytes: 4096,
            steal_count: 5,
            wide_ops: 7,
            coscheduled_ops: 11,
            parks: 13,
            inline_ops: 17,
            copied_bytes: 0,
        };
        let trip = |step, reason: &str, attempt, action| TripEvent { step, reason: reason.into(), attempt, action };
        let report = TrainReport {
            workload: "autoenc",
            steps: 7,
            resumed_from: Some(4),
            final_loss: Some(f32::NAN),
            final_grad_norm: Some(0.1),
            trips: vec![
                trip(5, "fetch n12 is non-finite", 1, RetryPolicy::Replay),
                trip(6, "fetch n3 value 20000 exceeds limit 10000", 2, RetryPolicy::LrBackoff { factor: 0.5 }),
            ],
            snapshots_written: 2,
            snapshot_nanos: 123_456_789_012,
            step_nanos: 987_654_321_098_765,
            runtime,
        };
        // Recorded from the hand-formatted writer this one replaced.
        assert_eq!(
            report.to_json(&TrainOutcome::Killed { at_step: 7 }),
            "{\n  \"workload\": \"autoenc\",\n  \"outcome\": \"killed@7\",\n  \"steps\": 7,\n  \
             \"resumed_from\": 4,\n  \"final_loss\": null,\n  \"final_grad_norm\": 0.1,\n  \
             \"guardrail_trips\": 2,\n  \"trips\": [\n    \
             {\"step\": 5, \"attempt\": 1, \"action\": \"replay\", \"reason\": \"fetch n12 is non-finite\"},\n    \
             {\"step\": 6, \"attempt\": 2, \"action\": \"lr-backoff:0.5\", \
             \"reason\": \"fetch n3 value 20000 exceeds limit 10000\"}\n  ],\n  \
             \"snapshots_written\": 2,\n  \"snapshot_nanos\": 123456789012,\n  \
             \"runtime\": {\"allocations\": 3, \"arena_bytes\": 4096, \"steal_count\": 5, \"wide_ops\": 7, \
             \"coscheduled_ops\": 11, \"parks\": 13, \"inline_ops\": 17},\n  \
             \"step_nanos\": 987654321098765\n}\n"
        );
        // A report with no trips differs from the old writer in
        // whitespace only: `"trips": []` was `"trips": [\n  ]`. Pinned on
        // the old text with whitespace removed.
        let quiet = TrainReport { workload: "vgg", steps: 2, final_loss: Some(1.5), ..TrainReport::default() };
        let stripped: String =
            quiet.to_json(&TrainOutcome::Completed).chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(
            stripped,
            "{\"workload\":\"vgg\",\"outcome\":\"completed\",\"steps\":2,\"resumed_from\":null,\
             \"final_loss\":1.5,\"final_grad_norm\":null,\"guardrail_trips\":0,\"trips\":[],\
             \"snapshots_written\":0,\"snapshot_nanos\":0,\"step_nanos\":0}"
        );
    }

    #[test]
    fn non_finite_report_floats_become_null_tokens() {
        let report = TrainReport {
            workload: "autoenc",
            steps: 3,
            final_loss: Some(f32::NAN),
            final_grad_norm: Some(f32::INFINITY),
            ..TrainReport::default()
        };
        let json = report.to_json(&TrainOutcome::Completed);
        assert!(json.contains("\"final_loss\": null"));
        assert!(json.contains("\"final_grad_norm\": null"));
        for token in ["NaN", "inf"] {
            assert!(!json.contains(token), "bare {token} leaked into JSON: {json}");
        }
    }

    #[test]
    fn snapshot_write_faults_corrupt_but_do_not_stop_training() {
        let dir = tmp_dir("ckptfault");
        let plan = Arc::new(
            FaultPlan::new(9).with(FaultSite::CheckpointWrite, 1, FaultAction::BitFlips {
                flips: 8,
            }),
        );
        let mut t = autoenc_trainer(17)
            .with_snapshots(SnapshotPolicy { every: 2, keep: 3 }, &dir)
            .with_faults(plan.clone());
        t.run(6).unwrap();
        t.flush().unwrap();
        assert_eq!(plan.fired_count(), 1, "the ckpt-write fault must fire");
        // The corrupted middle generation (step 4) must be skipped; 6 is
        // still good, so resume lands there.
        let mut resumed = autoenc_trainer(17);
        let at = resumed.resume(&dir).unwrap();
        assert_eq!(at, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_snapshot_writes_are_typed_errors_never_panics() {
        fn is_io<T>(r: Result<T, TrainError>) -> bool {
            matches!(r, Err(TrainError::Checkpoint(CheckpointError::Io(_))))
        }
        let policy = SnapshotPolicy { every: 2, keep: 2 };

        // A directory cannot be created under a regular file: the
        // snapshot hand-off fails at once.
        let file = tmp_dir("not-a-dir");
        std::fs::write(&file, b"a file").unwrap();
        let mut t = autoenc_trainer(3).with_snapshots(policy, file.join("snapshots"));
        assert!(is_io(t.run(2)));
        let _ = std::fs::remove_file(&file);

        // A directory squatting on the step-2 tmp path fails the
        // background write itself. That surfaces from flush()...
        let dir = tmp_dir("blocked-tmp");
        std::fs::create_dir_all(Trainer::snapshot_path(&dir, 2).with_extension("tmp")).unwrap();
        let mut t = autoenc_trainer(3).with_snapshots(policy, &dir);
        assert_eq!(t.run(2).unwrap(), TrainOutcome::Completed);
        assert!(is_io(t.flush()));
        assert_eq!(t.report().snapshots_written, 0);
        // ...or from the next snapshot, which waits for it first.
        let mut t = autoenc_trainer(3).with_snapshots(policy, &dir);
        assert!(is_io(t.run(4)));
        // Dropping a trainer whose write failed does not panic.
        let mut t = autoenc_trainer(3).with_snapshots(policy, &dir);
        t.run(2).unwrap();
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_handed_off_while_one_is_in_flight_all_land() {
        let dir = tmp_dir("inflight");
        // Every step snapshots, so each hand-off finds the previous
        // write in flight or just finished, and must wait for it.
        let mut t = autoenc_trainer(5).with_snapshots(SnapshotPolicy { every: 1, keep: 100 }, &dir);
        t.run(6).unwrap();
        t.flush().unwrap();
        assert_eq!(t.report().snapshots_written, 6);
        let steps: Vec<u64> = Trainer::generations(&dir).iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![6, 5, 4, 3, 2, 1]);
        assert!(!Trainer::snapshot_path(&dir, 6).with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deepq_kill_and_resume_is_bitwise_identical() {
        // The stateful outlier: resume must restore the environment,
        // replay buffer, and action RNG, not just variables.
        let dir = tmp_dir("deepq");
        let cfg = BuildConfig { seed: 23, ..BuildConfig::training() };
        let mut clean = Trainer::new(ModelKind::Deepq.build(&cfg)).unwrap();
        clean.run(8).unwrap();
        let clean_loss = clean.report().final_loss.unwrap();

        let mut killed = Trainer::new(ModelKind::Deepq.build(&cfg))
            .unwrap()
            .with_snapshots(SnapshotPolicy { every: 3, keep: 2 }, &dir)
            .with_faults(Arc::new(
                FaultPlan::new(0).with(FaultSite::TrainStep, 7, FaultAction::Crash),
            ));
        assert_eq!(killed.run(8).unwrap(), TrainOutcome::Killed { at_step: 7 });
        drop(killed);

        let mut resumed = Trainer::new(ModelKind::Deepq.build(&cfg)).unwrap();
        assert_eq!(resumed.resume(&dir).unwrap(), 6);
        resumed.run(8).unwrap();
        assert_eq!(
            clean_loss.to_bits(),
            resumed.report().final_loss.unwrap().to_bits(),
            "deepq resume diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
